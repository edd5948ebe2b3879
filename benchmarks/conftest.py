"""Shared plumbing for the pytest-benchmark targets.

``bench_experiments.py`` regenerates every experiment of DESIGN.md's
per-experiment index (the paper has no tables/figures of its own — the
experiments are the claim-derived equivalents; see DESIGN.md §1), and
``bench_suites.py`` runs every perf suite through the bench runner.

Usage::

    pytest benchmarks/bench_experiments.py benchmarks/bench_suites.py --benchmark-only
    REPRO_BENCH_SCALE=full pytest benchmarks/bench_suites.py --benchmark-only -k engines

Every target prints its report (run pytest with ``-s`` to see it live):
experiments persist their JSON under ``benchmarks/results/``, suites
write ``BENCH_<name>.json`` at the repo root.
"""

import os
import sys
from pathlib import Path

import pytest

try:
    import repro  # noqa: F401
except ImportError:  # run without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.bench import FULL, QUICK  # noqa: E402


@pytest.fixture(scope="session")
def bench_scale():
    """Experiment scale selected via REPRO_BENCH_SCALE (quick|full)."""
    return FULL if os.environ.get("REPRO_BENCH_SCALE") == "full" else QUICK
