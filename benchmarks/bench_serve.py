"""``repro serve`` load benchmark (no experiment id — pure wall clock).

Drives an in-process :class:`~repro.api.serve.ReproServer` over real
HTTP (keep-alive loopback connections, one per client thread) and
persists the payload to ``BENCH_serve.json`` at the repo root:

* ``warm``     — 100% hit rate: every request's key is already in the
  result cache, so the server answers synchronously from the
  in-process memo.  Requests/sec and p50/p99 latency.
* ``mixed``    — 50% hit rate: half the keys are pre-cached, half cold
  (each cold key queues one engine run).
* ``cold``     — 0% hit rate: every key is new.
* ``coalesce`` — N identical concurrent cold requests; the single-
  flight table must collapse them onto exactly one engine run.

Acceptance criteria: warm-hit p50 below
:data:`WARM_P50_TARGET_MS` and at least :data:`THROUGHPUT_TARGET` req/s
at 100% hit rate — asserted wherever the machine has at least
:data:`MIN_CPUS_FOR_ASSERT` CPUs (smaller boxes record the measurement
and emit a loud ``::warning``) — plus, unconditionally: the coalesce
leg performs exactly one engine run, and the served warm payload is
value-identical to a local ``simulate()``.

Usage::

    python benchmarks/bench_serve.py [--quick] [--clients N] [--out PATH]
"""

import json
import os
import platform
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

from repro.api import SimulationSpec, simulate  # noqa: E402
from repro.bench.store import Bench, Gate, bench_environment, bench_main  # noqa: E402
from repro.api.serve import ReproServer, ServeClient  # noqa: E402

WARM_P50_TARGET_MS = 5.0
THROUGHPUT_TARGET = 200.0  # warm req/s across all client threads
MIN_CPUS_FOR_ASSERT = 2
COALESCE_CLIENTS = 8

QUICK_LOAD = {"clients": 4, "warm_keys": 8, "warm_requests": 600, "cold_keys": 12}
FULL_LOAD = {"clients": 8, "warm_keys": 32, "warm_requests": 4000, "cold_keys": 48}

#: The per-request simulation: small enough that a cold run takes
#: milliseconds (the benchmark measures the serving layer, not the
#: engine), large enough to be a real consensus run.
BASE_SPEC = {
    "protocol": "two-choices",
    "n": 120,
    "initial": "two-colors",
    "initial_params": {"gap": 24},
    "reps": 1,
    "max_steps": 4800,
}


def _spec_payload(seed: int) -> dict:
    return SimulationSpec(**BASE_SPEC, seed=seed).to_dict()


def _percentile(sorted_values, fraction: float) -> float:
    if not sorted_values:
        return float("nan")
    index = min(len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def _drive(address, payloads, total_requests, clients):
    """Fire *total_requests* POSTs round-robin over *payloads* from
    *clients* threads; returns (latencies_seconds, elapsed_seconds)."""
    per_thread = total_requests // clients
    lots = [[] for _ in range(clients)]
    errors = []

    def run(index):
        latencies = lots[index]
        try:
            with ServeClient(address) as client:
                for i in range(per_thread):
                    body = payloads[(index * per_thread + i) % len(payloads)]
                    start = time.perf_counter()
                    status, _, _ = client.request_raw("POST", "/v1/simulate", body)
                    latencies.append(time.perf_counter() - start)
                    if status != 200:
                        errors.append(status)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(repr(exc))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise AssertionError(f"load errors: {errors[:5]} ({len(errors)} total)")
    merged = sorted(lat for lot in lots for lat in lot)
    return merged, elapsed


def _leg_stats(latencies, elapsed, requests):
    return {
        "requests": requests,
        "elapsed_seconds": elapsed,
        "requests_per_second": requests / elapsed if elapsed > 0 else float("inf"),
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p90_ms": _percentile(latencies, 0.90) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "max_ms": latencies[-1] * 1e3 if latencies else float("nan"),
    }


def benchmark_serve(quick: bool = False, clients: int = 0) -> dict:
    """Run the four serve legs and return the JSON payload."""
    load = dict(QUICK_LOAD if quick else FULL_LOAD)
    if clients:
        load["clients"] = clients
    cpu_count = os.cpu_count() or 1

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as cache_dir:
        with ReproServer(port=0, cache_dir=cache_dir, workers=2) as server:
            address = server.address
            warm_payloads = [_spec_payload(seed) for seed in range(load["warm_keys"])]
            with ServeClient(address) as primer:
                for body in warm_payloads:
                    status, _, _ = primer.request_raw("POST", "/v1/simulate", body)
                    assert status == 200, f"prime failed: {status}"

                # Identity gate: the served warm body must be value-
                # identical to a local simulate() of the same spec.
                _, _, body = primer.request_raw("POST", "/v1/simulate", warm_payloads[0])
                served = json.loads(body)
                local = simulate(SimulationSpec.from_dict(warm_payloads[0])).to_dict()
                served.pop("elapsed_seconds"), local.pop("elapsed_seconds")
                canon = lambda p: json.dumps(p, sort_keys=True)  # noqa: E731
                identity_ok = canon(served) == canon(local)

            # -- warm: 100% hit rate ------------------------------------
            latencies, elapsed = _drive(
                address, warm_payloads, load["warm_requests"], load["clients"]
            )
            warm = _leg_stats(latencies, elapsed, load["warm_requests"])

            # -- mixed: 50% hit rate ------------------------------------
            cold_payloads = [
                _spec_payload(seed) for seed in range(10_000, 10_000 + load["cold_keys"])
            ]
            mixed_payloads = [
                payload
                for pair in zip(cold_payloads, warm_payloads * load["cold_keys"])
                for payload in pair
            ]
            requests = len(mixed_payloads)
            latencies, elapsed = _drive(address, mixed_payloads, requests, load["clients"])
            mixed = _leg_stats(latencies, elapsed, requests)

            # -- cold: 0% hit rate --------------------------------------
            cold_payloads = [
                _spec_payload(seed) for seed in range(20_000, 20_000 + load["cold_keys"])
            ]
            latencies, elapsed = _drive(
                address, cold_payloads, len(cold_payloads), load["clients"]
            )
            cold = _leg_stats(latencies, elapsed, len(cold_payloads))

            # -- coalesce: N identical concurrent cold requests ---------
            with ServeClient(address) as observer:
                runs_before = observer.health()["stats"]["engine_runs"]
            coalesce_payload = _spec_payload(31_337)
            bodies = []

            def post_identical():
                with ServeClient(address) as client:
                    status, _, body = client.request_raw(
                        "POST", "/v1/simulate", coalesce_payload
                    )
                    assert status == 200, status
                    bodies.append(body)

            threads = [
                threading.Thread(target=post_identical) for _ in range(COALESCE_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with ServeClient(address) as observer:
                health = observer.health()
            coalesce_engine_runs = health["stats"]["engine_runs"] - runs_before
            coalesce = {
                "concurrent_clients": COALESCE_CLIENTS,
                "engine_runs": coalesce_engine_runs,
                "distinct_bodies": len(set(bodies)),
            }
            final_stats = health["stats"]

    return {
        "benchmark": "repro serve: HTTP load at 100/50/0% hit rates plus a coalescing leg",
        "workload": {
            **BASE_SPEC,
            "clients": load["clients"],
            "warm_keys": load["warm_keys"],
            "warm_requests": load["warm_requests"],
            "cold_keys": load["cold_keys"],
        },
        "legs": {"warm": warm, "mixed": mixed, "cold": cold, "coalesce": coalesce},
        "server_stats": final_stats,
        "criteria": {
            "served_equals_simulate_ok": identity_ok,
            "coalesce_single_engine_run_ok": coalesce_engine_runs == 1,
            "coalesce_byte_identical_ok": len(set(bodies)) == 1,
            "warm_p50_ms": warm["p50_ms"],
            "warm_p50_target_ms": WARM_P50_TARGET_MS,
            "warm_requests_per_second": warm["requests_per_second"],
            "throughput_target": THROUGHPUT_TARGET,
            "latency_applicable": cpu_count >= MIN_CPUS_FOR_ASSERT,
            "warm_p50_ok": warm["p50_ms"] < WARM_P50_TARGET_MS,
            "throughput_ok": warm["requests_per_second"] >= THROUGHPUT_TARGET,
        },
        "environment": {
            **bench_environment(),
            "platform": platform.platform(),
            "cpu_count": cpu_count,
        },
    }


def format_payload(payload: dict, args=None) -> str:
    legs = payload["legs"]
    criteria = payload["criteria"]

    def leg_line(name, leg):
        return (
            f"{name:<6}: {leg['requests']:>5} req in {leg['elapsed_seconds']:.2f}s  "
            f"({leg['requests_per_second']:>7.0f} req/s)  "
            f"p50={leg['p50_ms']:.2f}ms p90={leg['p90_ms']:.2f}ms p99={leg['p99_ms']:.2f}ms"
        )

    lines = [
        f"serve load: {payload['workload']['clients']} clients, "
        f"{payload['workload']['warm_keys']} warm keys "
        f"(n={payload['workload']['n']} {payload['workload']['protocol']})",
        leg_line("warm", legs["warm"]),
        leg_line("mixed", legs["mixed"]),
        leg_line("cold", legs["cold"]),
        f"coalesce: {legs['coalesce']['concurrent_clients']} identical concurrent requests "
        f"-> {legs['coalesce']['engine_runs']} engine run(s), "
        f"{legs['coalesce']['distinct_bodies']} distinct body/ies",
        f"warm p50 {criteria['warm_p50_ms']:.2f}ms (target <{criteria['warm_p50_target_ms']}ms), "
        f"{criteria['warm_requests_per_second']:.0f} req/s "
        f"(target >={criteria['throughput_target']:.0f}) — "
        f"{'asserted' if criteria['latency_applicable'] else 'recorded only: cpu_count=' + str(payload['environment']['cpu_count'])}",
        f"identity vs simulate(): {'ok' if criteria['served_equals_simulate_ok'] else 'FAILED'}",
    ]
    return "\n".join(lines)


_LATENCY_SKIPPED = (
    f"cpu_count={{cpu_count}} < {MIN_CPUS_FOR_ASSERT} (measured p50={{warm_p50_ms:.2f}}ms, "
    "{warm_requests_per_second:.0f} req/s; targets <{warm_p50_target_ms}ms, "
    ">={throughput_target:.0f} req/s)"
)

BENCH = Bench(
    name="serve",
    help="repro serve under HTTP load at 100/50/0% hit rates plus a coalescing leg",
    run=lambda args: benchmark_serve(quick=args.quick, clients=args.clients),
    format=format_payload,
    options=lambda parser: parser.add_argument(
        "--clients", type=int, default=0, help="override client thread count"
    ),
    quick_help="smaller request volume",
    gates=(
        Gate("served_equals_simulate_ok"),
        Gate("coalesce_single_engine_run_ok"),
        Gate("coalesce_byte_identical_ok"),
        Gate("warm_p50_ok", applicable="latency_applicable", reason=_LATENCY_SKIPPED),
        Gate("throughput_ok", applicable="latency_applicable", reason=_LATENCY_SKIPPED),
    ),
)


if __name__ == "__main__":
    sys.exit(bench_main(BENCH))
