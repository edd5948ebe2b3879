"""Tick-kernel perf benchmark (no experiment id — pure wall clock).

Times the hazard tick loop under each available kernel (numpy, C)
on the fixed Two-Choices torus workload, and persists the
payload to ``BENCH_kernels.json`` at the repo root so the kernel perf
trajectory is comparable across PRs.

Usage::

    pytest benchmarks/bench_kernels.py --benchmark-only               # quick
    REPRO_BENCH_SCALE=full pytest benchmarks/bench_kernels.py --benchmark-only
    python benchmarks/bench_kernels.py [--quick] [--out PATH]

The ``full`` pytest scale (and the script without ``--quick``) runs at
``n = 1e5`` — the scale the acceptance criterion quotes; quick runs at
``n = 1e4``.  The headline criterion — the compiled C kernel at least
2x over the numpy loop in the mixed phase — is asserted whenever it is
available; without it (no C toolchain) the assertion is *skipped loudly* so CI logs show exactly
why no compiled number was recorded.  Bit-identity of compiled
trajectories against the numpy reference is always asserted.
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
OUT_PATH = ROOT / "BENCH_kernels.json"

try:
    import repro  # noqa: F401
except ImportError:  # direct script invocation without PYTHONPATH=src
    sys.path.insert(0, str(ROOT / "src"))

from repro.bench.perf_kernels import (  # noqa: E402
    DEFAULT_N,
    QUICK_N,
    benchmark_kernels,
    format_payload,
    save_payload,
)


def test_kernel_perf(benchmark):
    """Pytest-benchmark target: one kernel sweep at the selected scale."""
    full = os.environ.get("REPRO_BENCH_SCALE") == "full"
    payload = benchmark.pedantic(
        benchmark_kernels,
        kwargs={
            "n": DEFAULT_N if full else QUICK_N,
            "trials": 3 if full else 2,
        },
        iterations=1,
        rounds=1,
    )
    print()
    print(format_payload(payload))
    save_payload(payload, str(OUT_PATH))
    criteria = payload["criteria"]
    if criteria["compiled_kernel"] is None:
        pytest.skip(
            "SKIPPED LOUDLY: no compiled kernel available on this host, "
            f"numpy numbers only: {criteria['compiled_kernel_skipped']}"
        )
    assert criteria["kernel_bit_identical"], payload["criteria"]
    assert criteria["kernel_speedup_ge_2x"], payload["criteria"]


if __name__ == "__main__":
    from repro.bench import perf_kernels

    argv = sys.argv[1:]
    if "--out" not in argv:
        argv += ["--out", str(OUT_PATH)]
    raise SystemExit(perf_kernels.main(argv))
