"""Distributed-executor perf benchmark (no experiment id — pure wall clock).

Times the same CPU-bound campaign grid as ``bench_campaign.py``
(asynchronous Two-Choices on ``K_n`` through the ensemble counts fast
path, 12 points with ``n`` log-spaced up to ``1e8``) against the socket
coordinator and persists the payload to ``BENCH_distributed.json`` at
the repo root:

* ``serial``      — ``run_campaign(executor="serial")``, cold, the
  baseline;
* ``distributed`` — 4 localhost ``repro worker`` subprocesses pulling
  from a :class:`~repro.api.DistributedExecutor`, cold, populating a
  fresh cache directory (worker *startup* happens before the timer —
  the criterion measures steady-state dispatch, not Python import
  time);
* ``warm``        — the campaign replayed serially against the cache
  the *distributed* leg populated (zero engine runs proves the
  coordinator persisted every point as it landed);
* ``kill``        — the distributed leg again, but one worker is
  SIGKILLed as soon as the third result lands; the survivors absorb
  the requeued leases and the campaign must still complete.

Acceptance criteria: with 4 localhost workers the grid runs
>= 2x faster than serial wall-clock — asserted wherever the machine
actually has >= 4 CPUs (``speedup_applicable``; smaller boxes record
the measurement and emit a loud ``::warning``) — and every leg is
value-for-value identical to serial (asserted unconditionally,
including the worker-kill leg and the warm replay).

Usage::

    python benchmarks/bench_distributed.py [--quick] [--workers N] [--out PATH]
"""

import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # direct script invocation without PYTHONPATH=src
    sys.path.insert(0, str(ROOT / "src"))

from repro.api import (  # noqa: E402
    CampaignSpec,
    DistributedExecutor,
    SimulationSpec,
    SweepSpec,
    run_campaign,
)
from repro.bench.store import Bench, Gate, bench_environment, bench_main  # noqa: E402
from repro.workloads.sweeps import log_spaced_ints  # noqa: E402

WORKERS = 4
SPEEDUP_TARGET = 2.0
KILL_AFTER_RESULTS = 3

QUICK_GRID = {"low": 10_000_000, "high": 100_000_000, "points": 12, "reps": 4}
FULL_GRID = {"low": 10_000_000, "high": 100_000_000, "points": 12, "reps": 8}

#: Workers are spawned (and given this long to finish importing Python)
#: before the distributed timer starts, so the speedup criterion
#: measures dispatch throughput rather than interpreter start-up.
WORKER_WARMUP_SECONDS = 2.0


def _campaign(grid) -> CampaignSpec:
    ns = log_spaced_ints(grid["low"], grid["high"], grid["points"])
    base = SimulationSpec(protocol="two-choices", n=ns[0], reps=grid["reps"])
    return CampaignSpec(
        base=base, sweep=SweepSpec(axes={"n": ns}), seed=20170725, name="bench-distributed"
    )


def _deterministic(result):
    payload = result.to_dict()
    del payload["execution"]
    return payload


def _spawn_workers(executor, count, connect_retry=120.0):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable,
        "-m",
        "repro",
        "worker",
        "--connect",
        f"{executor.host}:{executor.port}",
        "--connect-retry",
        f"{connect_retry:.0f}",
    ]
    return [
        subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        for _ in range(count)
    ]


def _reap(procs):
    for proc in procs:
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=60)


def benchmark_distributed(quick: bool = False, workers: int = WORKERS) -> dict:
    """Run the four-leg comparison and return the JSON payload."""
    grid = QUICK_GRID if quick else FULL_GRID
    campaign = _campaign(grid)
    cpu_count = os.cpu_count() or 1

    start = time.perf_counter()
    serial = run_campaign(campaign, executor="serial")
    serial_seconds = time.perf_counter() - start

    # -- distributed cold + warm replay from its cache ------------------
    with tempfile.TemporaryDirectory(prefix="bench-distributed-") as cache_dir:
        with DistributedExecutor(lease_timeout=60.0) as executor:
            procs = _spawn_workers(executor, workers)
            time.sleep(WORKER_WARMUP_SECONDS)
            start = time.perf_counter()
            distributed = run_campaign(campaign, executor=executor, cache=cache_dir)
            distributed_seconds = time.perf_counter() - start
            _reap(procs)  # clean shutdown frames were sent at batch end
            distributed_stats = dict(executor.last_stats)

        start = time.perf_counter()
        warm = run_campaign(campaign, cache=cache_dir)
        warm_seconds = time.perf_counter() - start

    # -- worker-kill leg ------------------------------------------------
    with DistributedExecutor(lease_timeout=60.0) as executor:
        procs = _spawn_workers(executor, workers)
        landed = {"count": 0, "killed": False}
        lock = threading.Lock()

        def kill_one(position, payload):
            with lock:
                landed["count"] += 1
                if landed["count"] == KILL_AFTER_RESULTS and not landed["killed"]:
                    landed["killed"] = True
                    procs[0].kill()

        executor.progress_hook = kill_one
        time.sleep(WORKER_WARMUP_SECONDS)
        start = time.perf_counter()
        killed_run = run_campaign(campaign, executor=executor)
        kill_seconds = time.perf_counter() - start
        _reap(procs)
        kill_stats = dict(executor.last_stats)

    serial_payload = _deterministic(serial)
    identical = serial_payload == _deterministic(distributed) == _deterministic(warm)
    kill_identical = serial_payload == _deterministic(killed_run)
    speedup = serial_seconds / distributed_seconds if distributed_seconds > 0 else float("inf")
    return {
        "benchmark": "distributed executor: serial vs localhost workers, plus a worker-kill leg",
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
            "distributed_cold_seconds": distributed_seconds,
            "warm_replay_seconds": warm_seconds,
            "kill_leg_seconds": kill_seconds,
        },
        "distributed_stats": distributed_stats,
        "kill_leg_stats": kill_stats,
        "criteria": {
            "distributed_identity_ok": identical,
            "warm_engine_runs": warm.engine_runs,
            "warm_replay_ok": warm.engine_runs == 0,
            "workers": workers,
            "speedup_vs_serial": speedup,
            "speedup_target": SPEEDUP_TARGET,
            "speedup_applicable": cpu_count >= workers,
            "speedup_ok": speedup >= SPEEDUP_TARGET,
            "kill_identity_ok": kill_identical,
            "worker_killed_mid_campaign": landed["killed"],
        },
        "environment": {
            **bench_environment(),
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
        f"serial cold        : {t['serial_cold_seconds']:.2f}s",
        f"distributed ({c['workers']} wrk): {t['distributed_cold_seconds']:.2f}s  "
        f"({c['speedup_vs_serial']:.2f}x vs serial; target {c['speedup_target']}x, "
        f"{'asserted' if c['speedup_applicable'] else 'recorded only: cpu_count=' + str(payload['environment']['cpu_count'])})",
        f"warm replay        : {t['warm_replay_seconds']:.3f}s  "
        f"(engine runs={c['warm_engine_runs']})",
        f"worker-kill leg    : {t['kill_leg_seconds']:.2f}s  "
        f"(requeued={payload['kill_leg_stats'].get('requeued', 0)}, "
        f"workers seen={payload['kill_leg_stats'].get('workers_seen', 0)})",
        f"distributed identity: {'ok' if c['distributed_identity_ok'] else 'FAILED'}; "
        f"kill-leg identity: {'ok' if c['kill_identity_ok'] else 'FAILED'}",
    ]
    return "\n".join(lines)


BENCH = Bench(
    name="distributed",
    help="the distributed executor: serial vs localhost workers, plus a worker-kill leg",
    run=lambda args: benchmark_distributed(quick=args.quick, workers=args.workers),
    format=format_payload,
    options=lambda parser: parser.add_argument("--workers", type=int, default=WORKERS),
    quick_help="fewer reps per point",
    gates=(
        Gate("distributed_identity_ok"),
        Gate("kill_identity_ok"),
        Gate("worker_killed_mid_campaign"),
        Gate("warm_replay_ok"),
        Gate(
            "speedup_ok",
            applicable="speedup_applicable",
            reason="cpu_count={cpu_count} < {workers} localhost workers on this machine "
            "(measured {speedup_vs_serial:.2f}x, target {speedup_target}x)",
        ),
    ),
)


if __name__ == "__main__":
    sys.exit(bench_main(BENCH))
