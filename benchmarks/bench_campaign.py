"""Campaign-layer perf benchmark (no experiment id — pure wall clock).

Times one CPU-bound campaign grid (asynchronous Two-Choices on ``K_n``
through the ensemble counts fast path, ``n`` log-spaced up to ``1e8``)
three ways and persists the payload to ``BENCH_campaign.json`` at the
repo root:

* ``serial``  — ``run_campaign(executor="serial")``, cold, populating a
  fresh cache directory;
* ``process`` — ``run_campaign(executor="process", workers=4)``, cold,
  no cache (the chunked ``ProcessPoolExecutor`` dispatch);
* ``warm``    — the serial campaign replayed against the populated
  cache (zero engine runs).

Acceptance criteria: with 4 process workers the grid runs
>= 2x faster than serial wall-clock — asserted wherever the machine
actually has >= 4 CPUs (``process_speedup_applicable``; single-core
boxes record the measurement without asserting it) — and the
warm-cache replay costs < 5% of the cold serial run.  The executor
identity (serial == process == warm, value for value) is asserted
unconditionally.

Usage::

    python benchmarks/bench_campaign.py [--quick] [--workers N] [--out PATH]
"""

import os
import platform
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # direct script invocation without PYTHONPATH=src
    sys.path.insert(0, str(ROOT / "src"))

from repro.api import CampaignSpec, SimulationSpec, SweepSpec, run_campaign  # noqa: E402
from repro.bench.store import Bench, Gate, bench_main  # noqa: E402
from repro.workloads.sweeps import log_spaced_ints  # noqa: E402

WORKERS = 4
SPEEDUP_TARGET = 2.0
WARM_FRACTION_TARGET = 0.05

QUICK_GRID = {"low": 10_000_000, "high": 100_000_000, "points": 8, "reps": 4}
FULL_GRID = {"low": 10_000_000, "high": 100_000_000, "points": 12, "reps": 8}


def _campaign(grid) -> CampaignSpec:
    ns = log_spaced_ints(grid["low"], grid["high"], grid["points"])
    base = SimulationSpec(protocol="two-choices", n=ns[0], reps=grid["reps"])
    return CampaignSpec(
        base=base, sweep=SweepSpec(axes={"n": ns}), seed=20170725, name="bench-campaign"
    )


def _deterministic(result):
    payload = result.to_dict()
    del payload["execution"]
    return payload


def benchmark_campaign(quick: bool = False, workers: int = WORKERS) -> dict:
    """Run the three-way comparison and return the JSON payload."""
    grid = QUICK_GRID if quick else FULL_GRID
    campaign = _campaign(grid)
    cpu_count = os.cpu_count() or 1

    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as cache_dir:
        start = time.perf_counter()
        serial = run_campaign(campaign, executor="serial", cache=cache_dir)
        serial_seconds = time.perf_counter() - start

        start = time.perf_counter()
        warm = run_campaign(campaign, executor="serial", cache=cache_dir)
        warm_seconds = time.perf_counter() - start

    start = time.perf_counter()
    process = run_campaign(campaign, executor="process", workers=workers)
    process_seconds = time.perf_counter() - start

    identical = _deterministic(serial) == _deterministic(process) == _deterministic(warm)
    speedup = serial_seconds / process_seconds if process_seconds > 0 else float("inf")
    warm_fraction = warm_seconds / serial_seconds if serial_seconds > 0 else 0.0
    return {
        "benchmark": "campaign layer: serial vs process executor vs warm cache",
        "workload": {
            "protocol": "two-choices",
            "model": "sequential",
            "initial": "benchmark-split",
            "ns": [int(n) for n in campaign.sweep.axes["n"]],
            "reps_per_point": grid["reps"],
            "points": campaign.size,
            "campaign_seed": campaign.seed,
        },
        "timings": {
            "serial_cold_seconds": serial_seconds,
            "process_cold_seconds": process_seconds,
            "warm_replay_seconds": warm_seconds,
        },
        "criteria": {
            "executor_identity_ok": identical,
            "process_workers": workers,
            "process_speedup_vs_serial": speedup,
            "process_speedup_target": SPEEDUP_TARGET,
            "process_speedup_applicable": cpu_count >= workers,
            "process_speedup_ok": speedup >= SPEEDUP_TARGET,
            "warm_engine_runs": warm.engine_runs,
            "warm_cache_hits": warm.cache_hits,
            "warm_fraction_of_cold": warm_fraction,
            "warm_fraction_target": WARM_FRACTION_TARGET,
            "warm_replay_ok": warm.engine_runs == 0 and warm_fraction < WARM_FRACTION_TARGET,
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": cpu_count,
        },
    }


def format_payload(payload: dict, args=None) -> str:
    t = payload["timings"]
    c = payload["criteria"]
    lines = [
        f"campaign grid: {payload['workload']['points']} points x "
        f"{payload['workload']['reps_per_point']} reps, "
        f"n up to {max(payload['workload']['ns']):.0e}",
        f"serial cold     : {t['serial_cold_seconds']:.2f}s",
        f"process ({c['process_workers']} wrk) : {t['process_cold_seconds']:.2f}s  "
        f"({c['process_speedup_vs_serial']:.2f}x vs serial; target {c['process_speedup_target']}x, "
        f"{'asserted' if c['process_speedup_applicable'] else 'recorded only: cpu_count=' + str(payload['environment']['cpu_count'])})",
        f"warm replay     : {t['warm_replay_seconds']:.3f}s  "
        f"({100 * c['warm_fraction_of_cold']:.1f}% of cold; target < "
        f"{100 * c['warm_fraction_target']:.0f}%, engine runs={c['warm_engine_runs']})",
        f"executor identity: {'ok' if c['executor_identity_ok'] else 'FAILED'}",
    ]
    return "\n".join(lines)


BENCH = Bench(
    name="campaign",
    help="the campaign layer: serial vs process executor vs warm cache",
    run=lambda args: benchmark_campaign(quick=args.quick, workers=args.workers),
    format=format_payload,
    options=lambda parser: parser.add_argument("--workers", type=int, default=WORKERS),
    quick_help="smaller grid, fewer reps",
    gates=(
        Gate("executor_identity_ok"),
        Gate("warm_replay_ok"),
        Gate(
            "process_speedup_ok",
            applicable="process_speedup_applicable",
            reason="cpu_count={cpu_count} < {process_workers} process workers on this machine "
            "(measured {process_speedup_vs_serial:.2f}x, target {process_speedup_target}x)",
        ),
    ),
)


if __name__ == "__main__":
    sys.exit(bench_main(BENCH))
