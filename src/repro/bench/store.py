"""JSON result store and shared bench-payload plumbing.

Each experiment run can be persisted as ``<dir>/<experiment_id>.json``
so EXPERIMENTS.md's paper-vs-measured numbers are regenerable and the
CLI can re-print past results without re-running the sweep.

The module also hosts the two helpers every ``perf_*`` module and
``benchmarks/bench_*.py`` target shares — the environment stamp and the
``BENCH_*.json`` emission — so the payload format is defined once.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional, TextIO

import numpy as np

from ..core.exceptions import ExperimentError
from ..core.hazard_kernel import active_kernel_name

__all__ = [
    "ResultStore",
    "bench_environment",
    "save_bench_payload",
    "warn_skipped_criterion",
]


def bench_environment() -> Dict[str, object]:
    """The environment stamp embedded in every ``BENCH_*.json`` payload:
    interpreter, numpy, machine, CPU count and the ``REPRO_KERNEL``
    tick kernel the process resolved."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "kernel": active_kernel_name(),
    }


def warn_skipped_criterion(name: str, reason: str, stream: Optional[TextIO] = None) -> None:
    """Loudly record that a perf criterion was measured but not asserted.

    A speedup gate that silently no-ops on an undersized box looks
    exactly like a pass in CI logs; this prints a GitHub-Actions
    ``::warning`` annotation on stdout (surfaced on the run summary
    page) plus a plain line on stderr for terminal runs, so a skipped
    gate is always visible.
    """
    message = f"perf criterion {name!r} recorded but NOT asserted: {reason}"
    print(f"::warning::{message}")
    print(f"repro bench: {message}", file=stream if stream is not None else sys.stderr)


def save_bench_payload(payload: Dict, path: str) -> None:
    """Write a bench payload as indented JSON (insertion key order,
    trailing newline) — the on-disk convention of the repo-root
    ``BENCH_*.json`` perf-trajectory files."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


class ResultStore:
    """Directory-backed key-value store for experiment payloads."""

    def __init__(self, directory: str = "results"):
        self.directory = Path(directory)

    def save(self, experiment_id: str, payload: Dict) -> Path:
        """Persist *payload* under the experiment id (overwrites)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(experiment_id)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        return path

    def load(self, experiment_id: str) -> Dict:
        path = self._path(experiment_id)
        if not path.exists():
            raise ExperimentError(f"no stored result for {experiment_id!r} in {self.directory}")
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def exists(self, experiment_id: str) -> bool:
        return self._path(experiment_id).exists()

    def list_ids(self) -> List[str]:
        if not self.directory.exists():
            return []
        return sorted(p.stem for p in self.directory.glob("*.json"))

    def _path(self, experiment_id: str) -> Path:
        safe = experiment_id.replace("/", "_")
        if not safe:
            raise ExperimentError("experiment id must be non-empty")
        return self.directory / f"{safe}.json"
