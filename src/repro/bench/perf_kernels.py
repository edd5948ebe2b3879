"""Tick-kernel perf benchmark (no experiment id — pure wall clock).

Times the hazard tick loop under each available kernel (``numpy``,
``c``) on the fixed Two-Choices torus workload the sparse
benchmark uses, in two phases:

- ``mixed``: a fixed ``BUDGET_PARALLEL * n`` tick budget from the 60/40
  split — the throughput number the acceptance criterion quotes;
- ``consensus``: a full run to consensus — the end-to-end number.

Both phases time :class:`~repro.engine.sequential.SequentialEngine`,
the engine every sparse sequential spec routes to.  Kernels are
selected through the real machinery (``REPRO_KERNEL`` +
``reset_active_kernel``), so the benchmark exercises the same
resolution path production runs use.  A separate identity section
replays one free-running full run per kernel: the engine's fixed blocks
draw the identical RNG stream under every kernel, so the trajectories
must match bit-for-bit, recorded under
``criteria["kernel_bit_identical"]``.

The headline criterion — the compiled C kernel at least 2x faster
than the numpy loop on the mixed phase — is only asserted when the
compiled kernel is available; otherwise the payload records a loud
skip under ``criteria["compiled_kernel_skipped"]``.

Usage::

    python -m repro kernels --quick
    python benchmarks/bench_kernels.py [--quick] [--out PATH]
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

import numpy as np

from ..core.exceptions import ConfigurationError
from ..core.hazard_kernel import KERNEL_ENV, available_kernels, reset_active_kernel
from ..engine.sequential import SequentialEngine
from ..graphs.sparse import torus
from ..protocols.two_choices import TwoChoicesSequential
from ..workloads.initial import benchmark_split
from .store import bench_environment, save_bench_payload
from .tables import format_table

__all__ = [
    "benchmark_kernels",
    "format_payload",
    "save_payload",
    "main",
    "DEFAULT_N",
    "QUICK_N",
]

#: the acceptance criterion is anchored at n = 1e5 (torus).
DEFAULT_N = 100_000
QUICK_N = 10_000

#: fixed throughput budget, in units of parallel time (ticks / n).
BUDGET_PARALLEL = 2

def _never(counts) -> bool:
    return False


def _torus(n: int):
    rows = next(r for r in range(int(np.sqrt(n)), 0, -1) if n % r == 0)
    return torus(rows, n // rows)


def _run_rows(
    kernel_name: str, n: int, trials: int, seed: int, consensus: bool
) -> List[Dict]:
    """Time one kernel on the mixed-phase budget (and optionally to
    consensus), returning one result row per phase."""
    engine = SequentialEngine(TwoChoicesSequential(), _torus(n))
    config = benchmark_split(n)
    budget_ticks = BUDGET_PARALLEL * n
    rows: List[Dict] = []

    phases = [("mixed", {"max_ticks": budget_ticks, "stop": _never})]
    if consensus:
        max_ticks = int(100 * n * max(np.log(n), 1.0))
        phases.append(("consensus", {"max_ticks": max_ticks}))
    for phase, run_kwargs in phases:
        seconds = []
        ticks = []
        for trial in range(trials):
            start = time.perf_counter()
            result = engine.run(config, seed=seed + trial, **run_kwargs)
            seconds.append(time.perf_counter() - start)
            ticks.append(result.rounds)
        rows.append(
            {
                "kernel": kernel_name,
                "phase": phase,
                "n": int(n),
                "trials": trials,
                "mean_seconds": float(np.mean(seconds)),
                "min_seconds": float(np.min(seconds)),
                "mean_ticks": float(np.mean(ticks)),
                "ns_per_tick": float(np.min(seconds) / np.mean(ticks) * 1e9),
            }
        )
    return rows


#: identity-check scale: small enough to replay per kernel in well
#: under a second, large enough to cross many block boundaries.
_IDENTITY_N = 4096


def _identity_fingerprint(seed: int) -> tuple:
    """One free-running full run's trajectory fingerprint.

    Every kernel consumes the identical presampled draws, so the whole
    run must replay bit-for-bit (see :mod:`repro.core.hazard_kernel`).
    """
    engine = SequentialEngine(TwoChoicesSequential(), _torus(_IDENTITY_N))
    config = benchmark_split(_IDENTITY_N)
    result = engine.run(config, seed=seed)
    return (result.rounds, result.winner, tuple(result.final.counts))


def benchmark_kernels(
    n: int = DEFAULT_N,
    trials: int = 3,
    seed: int = 20170725,
    kernels: Optional[List[str]] = None,
    consensus: bool = True,
) -> Dict:
    """Time every available (or requested) kernel on the torus workload.

    Each kernel is activated through ``REPRO_KERNEL`` so the benchmark
    measures exactly what a production process selecting that kernel
    would run.  The previous environment value is restored afterwards.
    """
    probes = list(available_kernels().values())
    probe_rows = [
        {"kernel": p.name, "available": p.available, "detail": p.detail} for p in probes
    ]
    runnable = [p.name for p in probes if p.available]
    if kernels is None:
        selected = runnable
    else:
        unknown = [name for name in kernels if name not in {p.name for p in probes}]
        if unknown:
            raise ConfigurationError(f"unknown kernels requested: {unknown}")
        selected = [name for name in kernels if name in runnable]

    results: List[Dict] = []
    fingerprints: Dict[str, tuple] = {}
    saved = os.environ.get(KERNEL_ENV)
    try:
        for name in selected:
            os.environ[KERNEL_ENV] = name
            reset_active_kernel()
            results.extend(_run_rows(name, n, trials, seed, consensus))
            fingerprints[name] = _identity_fingerprint(seed)
    finally:
        if saved is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = saved
        reset_active_kernel()

    by_key = {(r["kernel"], r["phase"]): r for r in results}
    criteria: Dict = {}
    criteria["kernels_available"] = runnable
    criteria["kernels_measured"] = selected

    # Bit-identity: every kernel must replay the numpy trajectory
    # exactly (rounds, winner, final counts).
    if "numpy" in fingerprints and len(fingerprints) > 1:
        reference = fingerprints["numpy"]
        criteria["kernel_bit_identical"] = all(
            fingerprint == reference for fingerprint in fingerprints.values()
        )

    # Headline: the C kernel >= 2x over the numpy loop (mixed phase,
    # n = 1e5 torus per the acceptance criterion).
    numpy_mixed = by_key.get(("numpy", "mixed"))
    c_mixed = by_key.get(("c", "mixed"))
    if c_mixed is not None and numpy_mixed is not None:
        speedup = numpy_mixed["min_seconds"] / c_mixed["min_seconds"]
        criteria["compiled_kernel"] = "c"
        criteria["kernel_mixed_speedup_vs_numpy"] = speedup
        criteria["kernel_speedup_ge_2x"] = speedup >= 2.0
        c_consensus = by_key.get(("c", "consensus"))
        numpy_consensus = by_key.get(("numpy", "consensus"))
        if c_consensus is not None and numpy_consensus is not None:
            criteria["kernel_consensus_speedup_vs_numpy"] = (
                numpy_consensus["min_seconds"] / c_consensus["min_seconds"]
            )
    else:
        criteria["compiled_kernel"] = None
        c_probe = next(p for p in probes if p.name == "c")
        if c_probe.available and "c" not in selected:
            criteria["compiled_kernel_skipped"] = "available but not requested: ['c']"
        else:
            criteria["compiled_kernel_skipped"] = (
                [] if c_probe.available else [{"kernel": "c", "detail": c_probe.detail}]
            )

    return {
        "benchmark": "kernels/async-two-choices-torus",
        "workload": (
            f"Two-Choices on torus, counts (0.6n, 0.4n), {BUDGET_PARALLEL}n-tick "
            "mixed budget + run to consensus, per kernel"
        ),
        "n": int(n),
        "trials": trials,
        "seed": seed,
        "budget_parallel": BUDGET_PARALLEL,
        "probes": probe_rows,
        "results": results,
        "criteria": criteria,
        "environment": bench_environment(),
    }


def save_payload(payload: Dict, path: str) -> None:
    """Write the payload as indented JSON (stable key order)."""
    save_bench_payload(payload, path)


def format_payload(payload: Dict) -> str:
    """Human-readable table + criteria lines for CLI output."""
    lines = []
    probe_rows = [
        [p["kernel"], "yes" if p["available"] else "no", p["detail"]]
        for p in payload["probes"]
    ]
    lines.append(format_table(["kernel", "available", "detail"], probe_rows))
    lines.append("")
    rows = [
        [
            entry["kernel"],
            entry["phase"],
            entry["n"],
            f"{entry['mean_seconds']:.3f}s",
            f"{entry['ns_per_tick']:.0f}ns",
        ]
        for entry in payload["results"]
    ]
    lines.append(format_table(["kernel", "phase", "n", "mean wall", "per tick"], rows))
    for name, value in payload["criteria"].items():
        lines.append(f"criterion {name}: {value}")
    return "\n".join(lines)


def add_cli_arguments(parser) -> None:
    """Register the benchmark's options on *parser* (shared by the
    standalone entry point and ``python -m repro kernels``)."""
    parser.add_argument("--n", type=int, default=None, help=f"nodes (default {DEFAULT_N})")
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=20170725)
    parser.add_argument("--out", default=None, help="write the JSON payload to this path")
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI scale: n = {QUICK_N}, 2 trials",
    )
    parser.add_argument(
        "--kernels",
        default=None,
        help="comma-separated kernels to measure (default: all available)",
    )
    parser.add_argument(
        "--no-consensus", action="store_true", help="skip the run-to-consensus phase"
    )


def run_cli(args, error) -> int:
    """Execute a parsed ``add_cli_arguments`` namespace."""
    n = args.n if args.n is not None else (QUICK_N if args.quick else DEFAULT_N)
    if n < 16:
        error(f"--n must be >= 16, got {n}")
    kernels = args.kernels.split(",") if args.kernels else None
    try:
        payload = benchmark_kernels(
            n=n,
            trials=2 if args.quick and args.trials == 3 else args.trials,
            seed=args.seed,
            kernels=kernels,
            consensus=not args.no_consensus,
        )
    except ConfigurationError as exc:
        error(str(exc))
    print(format_payload(payload))
    if args.out:
        save_payload(payload, args.out)
        print(f"wrote {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone CLI entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="perf_kernels",
        description="benchmark the compiled tick kernels against the numpy loop",
    )
    add_cli_arguments(parser)
    args = parser.parse_args(argv)
    return run_cli(args, parser.error)


if __name__ == "__main__":
    raise SystemExit(main())
