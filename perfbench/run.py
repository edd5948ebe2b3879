"""Benchmark of the plurality-consensus simulator, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload kn-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload and prints every end-to-end metric.
Its timing metrics are reported at a nominal machine speed, measured by
reference units timed between the ops (``reference.py``); the raw
values are in the report line.  ``--trace 1`` runs each op untraced
and then traced (on the serve workload, a sample of the misses,
replayed in-process) and prints the per-layer metrics.  The last line
of standard output is the JSON result; the lines before it are a
readable table (metric, value, unit, samples) and a ``report`` line
with the environment stamp, the CPU-speed probe, the reference timing,
the latency percentiles and the known-defect flags.  See
``perfbench/README.md`` for the workloads and the layer-to-end-to-end
metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Sibling modules; none of them imports ``repro`` at import time, so
# the checkout's ``src`` can be put on the path after they load.
import engines
import ops
import serve
from checks import payload_problems, value
from reference import Reference
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"

#: Op-list generator and deck size of the in-process workloads.
ENGINE_WORKLOADS = {
    "kn-sweep": (ops.kn_sweep, ops.KN_DECK),
    "sparse-topologies": (ops.sparse_topologies, len(ops.SPARSE_CELLS)),
    "paper-async": (ops.paper_async, ops.PAPER_DECK),
}
WORKLOADS = (*ENGINE_WORKLOADS, "serve-mixed")
#: Seconds of timed work between two set-up samples, so that set-up is
#: sampled across the whole run, not in one burst at its start.
SETUP_EVERY = 3.0
#: Seconds of serve requests between two pauses for reference units, so
#: that they follow the machine's speed closely.
SERVE_CHUNK = 1.0
#: Every n-th served miss is also compared with a local ``simulate()``.
SERVE_LOCAL_CHECK_EVERY = 16
#: Traced misses replayed in-process to split a miss into its layers.
SERVE_REPLAY = 16

#: Per-layer metrics only the serve workload measures (0 elsewhere).
SERVE_LAYER_METRICS = (
    ("api.cache_put_ms", "ms"), ("api.cache_get_ms", "ms"), ("serve.http_floor_ms", "ms"),
    ("serve.miss_overhead_ms", "ms"), ("serve.engine_runs_per_miss", "count"),
    ("serve.cache_hits", "count"), ("serve.coalesced", "count"), ("serve.errors", "count"),
    ("serve.hit_p50_ms", "ms"), ("serve.hit_p90_ms", "ms"), ("serve.miss_p50_ms", "ms"),
)


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    """The 90th percentile, or 0 with fewer than 100 samples (10 beyond it)."""
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 100 else 0.0


def latencies(prefix, seconds):
    """``<prefix>_p50_ms`` and ``<prefix>_p90_ms`` with their sample count."""
    ms = sorted(s * 1e3 for s in seconds)
    out = {f"{prefix}_p50_ms": (median(ms), "ms", len(ms))}
    if len(ms) >= 100:
        out[f"{prefix}_p90_ms"] = (p90(ms), "ms", len(ms))
    return out


def cpu_probe_ms(repeats: int = 15) -> float:
    """Median time of a fixed pure-Python loop: recorded, never used to scale."""
    samples = []
    for _ in range(repeats):
        began = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i % 7
        samples.append((time.perf_counter() - began) * 1e3)
    return statistics.median(samples)


def git_sha():
    """``git rev-parse HEAD`` of the checkout, or None outside a git repository."""
    # The ceiling keeps git from reporting an enclosing repository's HEAD.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, stdin=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def pin_to_one_cpu():
    """Run this process, and the processes it starts, on one CPU.

    Each CPU of a shared machine drifts in speed on its own; on one CPU
    the reference units time the same CPU the program runs on, server
    subprocess included.  Returns the CPU, or None where affinity is
    not supported.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_setup_seconds(env) -> float:
    """Process start until ``repro.api`` and ``repro.engine`` are imported."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import repro.api, repro.engine; print('ready', flush=True)"],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    with proc.stdout:
        line = proc.stdout.readline()
    elapsed = time.perf_counter() - began
    proc.wait()
    if line.strip() != "ready":
        raise RuntimeError("setup probe failed to import repro")
    return elapsed


def reference_report(reference, metrics):
    """The reference timing and the gated timing metrics at the measured speed."""
    speed = reference.speed()
    return {"units": reference.units, "unit_ms": reference.seconds * 1e3 / reference.units, "speed": speed,
            "raw": {"ops_per_s": metrics["ops_per_s"][0] * speed,
                    "ticks_per_s": metrics["ticks_per_s"][0] * speed,
                    "setup_s": metrics["setup_s"][0] / speed}}


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def warmup_specs(payloads):
    """Small copies of one op per (topology, model), so lazy imports and
    first-call costs happen before timing."""
    out = {}
    for payload in payloads:
        small = dict(payload, n=100 if payload.get("topology", "complete") == "complete" else 400)
        if small.get("topology") == "torus":
            small["topology_params"] = {"rows": 20}
        if "max_steps" in small:
            small["max_steps"] = 10 * small["n"]
        out.setdefault((small.get("topology"), small["model"]), small)
    return list(out.values())


def unseeded_graph_agrees() -> bool:
    """Known defect: random-regular without ``graph_seed`` is not a
    function of the spec.  Recorded as a flag, outside the timed ops."""
    from repro.api import SimulationSpec, simulate

    spec = SimulationSpec(protocol="two-choices", n=20_000, topology="random-regular",
                          topology_params={"degree": 4}, seed=1)
    return value(simulate(spec).to_dict()) == value(simulate(spec).to_dict())


def op_problems(passes):
    """``(failed op count, problem lines)`` over the passes' ops."""
    failed, lines = 0, []
    for done in passes:
        found = engines.problems(done)
        failed += len(found)
        lines += [f"op {index}: {p}" for index, problems in sorted(found.items()) for p in problems]
    return failed, lines


def run_engines(name, seed, seconds, trace, env, report):
    from repro.api import SimulationSpec, simulate

    generate, deck = ENGINE_WORKLOADS[name]
    payloads = generate(seed)
    report["env"]["ops_sha256"] = ops.ops_hash(payloads)
    specs = [SimulationSpec.from_dict(p) for p in payloads]
    for spec in warmup_specs(payloads[:deck]):
        simulate(SimulationSpec.from_dict(spec))

    if not trace:
        import_setup_seconds(env)  # may compile bytecode: not a sample
        samples = [import_setup_seconds(env)]
        reference = Reference()
        timed, wall = engines.closed_loop(specs, deck, seconds, reference,
                                          lambda: samples.append(import_setup_seconds(env)), SETUP_EVERY)
        failed, problems = op_problems([timed])
        problems += engines.repeat_sample(specs, timed)
        speed = reference.speed()
        metrics = engines.end_to_end(timed, wall, failed, speed)
        metrics["setup_s"] = (median(samples) * speed, "s", len(samples))
        metrics["peak_rss_mb"] = (peak_rss_mb(resource.RUSAGE_SELF), "MB", 1)
        report["reference"] = reference_report(reference, metrics)
        report["latency"] = latencies("op", (op.seconds for op in timed))
        attempted = len(timed)
    else:
        untraced, traced, tracer = engines.traced_pass(specs, deck, seconds)
        failed, problems = op_problems([untraced, traced])
        problems += [f"op {a.index} differs between passes" for a, b in zip(untraced, traced)
                     if a.payload and b.payload and value(a.payload) != value(b.payload)]
        walls = [sum(op.seconds for op in done) for done in (untraced, traced)]
        metrics = engines.per_layer(traced, tracer, *walls)
        metrics.update({metric: (0.0, unit) for metric, unit in SERVE_LAYER_METRICS})
        tracer.write(OUT / f"spans-{name}-{seed}.jsonl")
        report["self_ms_per_op"] = {k: v * 1e3 / max(len(traced), 1)
                                    for k, v in sorted(tracer.self_times().items())}
        attempted = len(untraced) + len(traced)
    if name == "sparse-topologies":
        report["defects"] = {"unseeded_graph_agrees": unseeded_graph_agrees()}
    return metrics, attempted, failed, problems


def serve_problems(requests, primed):
    """Failed checks per request index for one server's requests."""
    from repro.api import SimulationSpec

    bad = {}
    for r in requests:
        found = []
        if r.status != 200:
            found.append(f"HTTP {r.status}: {r.body[:200]!r}")
        elif r.kind == "hit":
            if r.served != "cache":
                found.append(f"hit served as {r.served!r}")
            if r.body != primed[r.target]:
                found.append("hit body differs from the primed body")
        else:
            payload = serve.parse(r.body)
            if r.served != "engine":
                found.append(f"miss served as {r.served!r}")
            if payload["spec"] != SimulationSpec.from_dict(ops.miss_spec(r.target)).to_dict():
                found.append("miss answered with another spec")
            found += payload_problems(payload)
        if found:
            bad[r.index] = found
    return bad


def local_mismatches(bodies_and_specs):
    """Served bodies must equal a local ``simulate()`` once ``elapsed_seconds`` is dropped."""
    from repro.api import SimulationSpec, simulate

    return [f"served {spec['protocol']} n={spec['n']} seed={spec['seed']} differs from local simulate()"
            for body, spec in bodies_and_specs
            if value(serve.parse(body)) != value(simulate(SimulationSpec.from_dict(spec)).to_dict())]


def serve_session(workload, seconds, trace, env):
    """Start, prime and drive the server; every server is stopped on return.

    Returns ``(requests, primed bodies, stats delta, timed seconds,
    extras)``.  Without *trace* the extras are the set-up samples (each
    a fresh server started between two chunks of requests, off the
    clock) and the reference, paced between the chunks; with it, the
    client-side ``serve.http`` spans and the idle-healthz floor.
    """
    deck = ops.SERVE_DECK
    samples = []
    tracer = Tracer() if trace else None
    reference = None if trace else Reference()

    def setup_sample():
        probe = serve.Server(ROOT, OUT, env, "setup")
        probe.stop()
        samples.append(probe.setup_seconds)

    # The timed server's start compiles any missing bytecode, so it is
    # not a sample; priming it is benchmark-only work.
    server = serve.Server(ROOT, OUT, env, "timed")
    try:
        primed = serve.prime(server, workload["hot"])
        before = server.stats()
        if not trace:
            setup_sample()
        requests, timed, since = [], 0.0, 0.0
        while not ops.past_deadline(len(requests), deck, timed, seconds):
            first = len(requests)

            def stop(index, elapsed, first=first, timed=timed):
                if ops.past_deadline(index, deck, timed + elapsed, seconds):
                    return True
                return not trace and index > first and index % deck == 0 and elapsed >= SERVE_CHUNK

            done, wall = serve.closed_loop(server, workload, ops.miss_spec, first, stop, tracer)
            requests += done
            timed += wall
            since += wall
            if not trace:
                reference.pace(wall)
                if since >= SETUP_EVERY:
                    setup_sample()
                    since = 0.0
        after = server.stats()
        delta = {key: after[key] - before[key] for key in after}
        extras = ({"setup": samples, "reference": reference} if not trace
                  else {"tracer": tracer, "floor": serve.http_floor_ms(server)})
        return requests, primed, delta, timed, extras
    finally:
        server.stop()


def replay_misses(misses):
    """Run served misses in-process, each untraced and then under the
    layer spans (the server itself stays untraced); the cache spans use
    a memo-less disk cache.  Returns ``(untraced ops, traced ops, tracer)``."""
    from repro.api import ResultCache, SimulationSpec

    tracer = Tracer()
    cache = ResultCache(OUT / f"replay-cache-{os.getpid()}", memo_size=0)
    untraced, traced = [], []
    try:
        for r in misses:
            spec = SimulationSpec.from_dict(ops.miss_spec(r.target))
            plain, spanned = engines.run_pair(spec, r.index, tracer)
            untraced.append(plain)
            traced.append(spanned)
            if spanned.payload is None:
                continue
            with tracer.span("api.cache_put", op=r.index):
                cache.put(spec, spanned.payload)
            with tracer.span("api.cache_get", op=r.index):
                cache.get_payload(spec)
    finally:
        shutil.rmtree(cache.directory, ignore_errors=True)
    return untraced, traced, tracer


def run_serve(seed, seconds, trace, env, report):
    workload = ops.serve_mixed(seed)
    report["env"]["ops_sha256"] = ops.ops_hash([workload["hot"], workload["requests"]])
    requests, primed, delta, wall, extras = serve_session(workload, seconds, trace, env)

    bad = serve_problems(requests, primed)
    failed = len(bad)
    problems = [f"request {index}: {p}" for index, found in sorted(bad.items()) for p in found]
    misses = [r for r in requests if r.kind == "miss"]
    if delta["engine_runs"] != len(misses):
        problems.append(f"{delta['engine_runs']} engine runs for {len(misses)} misses")
    problems += [f"primed hot spec {i}: {p}" for i, body in enumerate(primed)
                 for p in payload_problems(serve.parse(body))]
    checked = list(zip(primed, workload["hot"]))
    checked += [(r.body, ops.miss_spec(r.target)) for r in misses[::SERVE_LOCAL_CHECK_EVERY] if r.status == 200]
    problems += local_mismatches(checked)
    hit_s = [r.seconds for r in requests if r.kind == "hit"]
    miss_s = [r.seconds for r in misses]

    if not trace:
        served = [serve.parse(r.body) for r in misses if r.status == 200]
        reference = extras["reference"]
        speed = reference.speed()
        metrics = {
            "ops_per_s": (len(requests) / wall / speed, "1/s", len(requests)),
            "ticks_per_s": (sum(engines.activations(p) for p in served) / wall / speed, "1/s", len(served)),
            "ok_frac": ((len(requests) - failed) / len(requests), "fraction", len(requests)),
            "setup_s": (median(extras["setup"]) * speed, "s", len(extras["setup"])),
            "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB", 1),
        }
        report["reference"] = reference_report(reference, metrics)
        report["latency"] = {**latencies("op", (r.seconds for r in requests)),
                             **latencies("hit", hit_s), **latencies("miss", miss_s)}
        return metrics, len(requests), failed, problems

    replay = [r for r in misses if r.status == 200][:SERVE_REPLAY]
    untraced, replayed, tracer = replay_misses(replay)
    failed_replays, replay_problems = op_problems([untraced, replayed])
    failed += failed_replays
    problems += replay_problems
    problems += [f"replayed miss {r.index} differs from the served body"
                 for r, a, b in zip(replay, untraced, replayed)
                 if not (a.payload and b.payload and value(a.payload) == value(b.payload) == value(serve.parse(r.body)))]
    walls = [sum(op.seconds for op in done) for done in (untraced, replayed)]
    metrics = engines.per_layer(replayed, tracer, *walls)
    selfs = tracer.self_times()
    engine_s = tracer.self_times_by_op("engine.run")
    count = max(len(replayed), 1)
    metrics.update({
        "api.cache_put_ms": (selfs.get("api.cache_put", 0.0) * 1e3 / count, "ms"),
        "api.cache_get_ms": (selfs.get("api.cache_get", 0.0) * 1e3 / count, "ms"),
        "serve.http_floor_ms": (median(extras["floor"]), "ms"),
        "serve.miss_overhead_ms": (median([(r.seconds - engine_s.get(r.index, 0.0)) * 1e3 for r in replay]), "ms"),
        "serve.engine_runs_per_miss": (delta["engine_runs"] / max(len(misses), 1), "count"),
        "serve.cache_hits": (float(delta["cache_hits"]), "count"),
        "serve.coalesced": (float(delta["coalesced"]), "count"),
        "serve.errors": (float(delta["errors"]), "count"),
        "serve.hit_p50_ms": (median(hit_s) * 1e3, "ms"),
        "serve.hit_p90_ms": (p90(hit_s) * 1e3, "ms"),
        "serve.miss_p50_ms": (median(miss_s) * 1e3, "ms"),
    })
    tracer.write(OUT / f"spans-serve-mixed-{seed}.jsonl")
    report["self_ms_per_op"] = {k: v * 1e3 / count for k, v in sorted(selfs.items())}
    report["self_ms_per_op"]["serve.http"] = extras["tracer"].total("serve.http") * 1e3 / max(len(requests), 1)
    return metrics, len(requests) + len(untraced) + len(replayed), failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.setdefault("REPRO_KERNEL", "numpy")
    sys.path.insert(0, str(SRC))
    cpu = pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)

    import numpy
    from repro.core.hazard_kernel import active_kernel_name

    report = {"workload": args.workload, "trace": args.trace, "cpu_probe_ms": {"before": cpu_probe_ms()},
              "env": {"cpu_count": os.cpu_count(), "kernel": active_kernel_name(),
                      "python": platform.python_version(), "numpy": numpy.__version__,
                      "git_sha": git_sha(), "seed": args.seed, "pinned_cpu": cpu}}
    if args.workload == "serve-mixed":
        outcome = run_serve(args.seed, args.seconds, args.trace, child_env(), report)
    else:
        outcome = run_engines(args.workload, args.seed, args.seconds, args.trace, child_env(), report)
    metrics, attempted, failed, problems = outcome
    report["cpu_probe_ms"]["after"] = cpu_probe_ms()
    report["problems"] = problems[:20]

    for name, (number, unit, *samples) in sorted({**metrics, **report.get("latency", {})}.items()):
        note = f"  (n={samples[0]})" if samples else ""
        print(f"{name:<44} {number:>14.6g} {unit}{note}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": number, "unit": unit} for name, (number, unit, *_) in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
