"""Command-line interface.

Examples::

    python -m repro list
    python -m repro simulate two-choices --n 100000 --reps 8
    python -m repro simulate voter --n 10000 --model synchronous --initial balanced --initial-param k=4
    python -m repro sweep two-choices --axis n=10000,20000,40000 --reps 8 --seed 7
    python -m repro sweep two-choices --axis n=10000,20000 --workers 4 --cache-dir .repro-cache --json
    python -m repro sweep two-choices --axis n=10000,20000 --executor distributed:7654 --cache-dir cache
    python -m repro worker --connect 127.0.0.1:7654
    python -m repro serve --port 7680 --cache-dir .repro-cache --workers 4
    python -m repro run T6
    python -m repro run all --scale full --store results
    python -m repro show T6 --store results
    python -m repro schedule 100000
    python -m repro bench engines --quick --out BENCH_engines.json
    python -m repro bench robustness --quick --cache-dir .repro-cache --json
    python -m repro lint src/repro
    python -m repro lint src/repro --select REPRO-R002,REPRO-H003 --json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Dict, List, Optional

from .api import (
    DELAYS,
    EXECUTORS,
    FAULTS,
    INITIALS,
    PROTOCOLS,
    STOPS,
    TOPOLOGIES,
    CampaignSpec,
    SimulationSpec,
    SweepSpec,
    run_campaign,
    simulate,
)
from .bench import FULL, QUICK, ExperimentScale, ResultStore, experiment_ids, run_experiment
from .bench.tables import format_table
from .core.exceptions import ConfigurationError
from .protocols.schedule import PhaseSchedule

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-consensus",
        description="Rapid asynchronous plurality consensus (PODC 2017) — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser(
        "list", help="list registered experiments, protocols, topologies and initial conditions"
    )

    sim_cmd = sub.add_parser(
        "simulate",
        help="run one declarative simulation spec (protocol x topology x model x reps)",
    )
    sim_cmd.add_argument("protocol", help="registered protocol name (see 'repro list')")
    sim_cmd.add_argument("--n", type=int, required=True, help="number of nodes")
    sim_cmd.add_argument("--reps", type=int, default=1, help="independent replications")
    sim_cmd.add_argument(
        "--model",
        choices=["sequential", "continuous", "synchronous"],
        default="sequential",
        help="execution model (default: sequential ticks)",
    )
    sim_cmd.add_argument("--topology", default="complete", help="registered topology name")
    sim_cmd.add_argument("--initial", default="benchmark-split", help="registered initial condition")
    sim_cmd.add_argument("--delay", default=None, help="response-delay model (continuous only)")
    sim_cmd.add_argument("--stop", default="consensus", help="stop criterion")
    _add_param_flags(sim_cmd)
    sim_cmd.add_argument("--seed", type=int, default=None, help="master seed (default: OS entropy)")
    sim_cmd.add_argument("--max-steps", type=int, default=None, help="round/tick budget")
    sim_cmd.add_argument("--max-time", type=float, default=None, help="continuous-time budget")
    sim_cmd.add_argument(
        "--quick",
        action="store_true",
        help=f"smoke-run scale: shrink n by the quick-scale factor ({QUICK.size_factor})",
    )
    sim_cmd.add_argument("--json", action="store_true", help="emit the full result payload as JSON")
    sim_cmd.add_argument(
        "--spec-only", action="store_true", help="print the resolved spec as JSON without running"
    )

    sweep_cmd = sub.add_parser(
        "sweep",
        help="run a campaign: a declarative grid of simulate() specs with executors and a result cache",
    )
    sweep_cmd.add_argument("protocol", help="registered protocol name (see 'repro list')")
    sweep_cmd.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="FIELD=V1,V2,...",
        help="sweep axis over a SimulationSpec field ('n=1000,2000') or a params key "
        "('initial_params.k=2,4,8'); repeatable — axes combine as a cartesian grid "
        "unless --zip is given",
    )
    sweep_cmd.add_argument(
        "--zip",
        action="store_true",
        dest="zip_axes",
        help="align equal-length axes element-wise instead of taking their product",
    )
    sweep_cmd.add_argument("--n", type=int, default=None, help="number of nodes (or sweep an 'n' axis)")
    sweep_cmd.add_argument("--reps", type=int, default=1, help="independent replications per point")
    sweep_cmd.add_argument(
        "--model",
        choices=["sequential", "continuous", "synchronous"],
        default="sequential",
        help="execution model (default: sequential ticks)",
    )
    sweep_cmd.add_argument("--topology", default="complete", help="registered topology name")
    sweep_cmd.add_argument("--initial", default="benchmark-split", help="registered initial condition")
    sweep_cmd.add_argument("--delay", default=None, help="response-delay model (continuous only)")
    sweep_cmd.add_argument("--stop", default="consensus", help="stop criterion")
    _add_param_flags(sweep_cmd)
    sweep_cmd.add_argument(
        "--seed", type=int, default=20170725, help="campaign master seed (per-point seeds derive from it)"
    )
    sweep_cmd.add_argument("--max-steps", type=int, default=None, help="round/tick budget per point")
    sweep_cmd.add_argument("--max-time", type=float, default=None, help="continuous-time budget per point")
    sweep_cmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (>1 selects the process executor; default: in-process serial)",
    )
    sweep_cmd.add_argument("--chunksize", type=int, default=None, help="points per process dispatch")
    sweep_cmd.add_argument(
        "--executor",
        default=None,
        metavar="NAME[:HOST:PORT]",
        help="executor backend by name (see 'repro list'): serial, process, or "
        "distributed[:HOST:PORT] — the latter binds a coordinator socket and serves "
        "points to 'repro worker' processes; default: process when --workers > 1, "
        "else serial",
    )
    sweep_cmd.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache directory (skip-completed resume, warm replays)",
    )
    sweep_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the deterministic campaign payload as JSON on stdout (execution "
        "stats go to stderr, so equal campaigns emit byte-identical JSON)",
    )
    sweep_cmd.add_argument(
        "--spec-only", action="store_true", help="print the campaign spec as JSON without running"
    )

    worker_cmd = sub.add_parser(
        "worker",
        help="serve campaign points to a distributed sweep coordinator (pull, run, stream back)",
    )
    worker_cmd.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (the 'repro sweep --executor distributed:...' side)",
    )
    worker_cmd.add_argument(
        "--connect-retry",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="keep retrying the connection this long (the coordinator may start late, "
        "or restart after a crash and resume from its cache; default: 30)",
    )

    serve_cmd = sub.add_parser(
        "serve",
        help="run the persistent simulation service: HTTP front door with a shared "
        "result cache, request coalescing, and a bounded worker pool",
    )
    serve_cmd.add_argument("--port", type=int, default=7680, help="listen port (default: 7680)")
    serve_cmd.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve_cmd.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="content-addressed result cache shared by all requests (default: .repro-cache)",
    )
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=2,
        help="cold-run worker threads draining the job queue (default: 2)",
    )
    serve_cmd.add_argument(
        "--executor",
        default="serial",
        metavar="NAME[:HOST:PORT]",
        help="executor backend each worker dispatches through: serial, process, or "
        "distributed:HOST:PORT (default: serial)",
    )
    serve_cmd.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="max queued cold jobs before new work is refused with 503 (default: 256)",
    )
    serve_cmd.add_argument(
        "--verbose", action="store_true", help="log one line per HTTP request to stderr"
    )

    run_cmd = sub.add_parser("run", help="run one experiment (or 'all')")
    run_cmd.add_argument("experiment", help="experiment id (T1..T12) or 'all'")
    run_cmd.add_argument("--scale", choices=["quick", "full"], default="quick")
    run_cmd.add_argument("--trials", type=int, default=None, help="override trial count")
    run_cmd.add_argument("--seed", type=int, default=None, help="override master seed")
    run_cmd.add_argument("--store", default=None, help="directory to persist JSON results")

    show_cmd = sub.add_parser("show", help="re-print a stored experiment result")
    show_cmd.add_argument("experiment", help="experiment id")
    show_cmd.add_argument("--store", default="results")

    report_cmd = sub.add_parser("report", help="render all stored results as one markdown report")
    report_cmd.add_argument("--store", default="results")
    report_cmd.add_argument("--title", default="Experiment report")

    sched_cmd = sub.add_parser("schedule", help="print the compiled phase schedule for n nodes")
    sched_cmd.add_argument("n", type=int)
    sched_cmd.add_argument("--no-sync", action="store_true", help="disable the Sync Gadget")

    bench_cmd = sub.add_parser(
        "bench",
        help="run one perf suite: print its payload, --out saves it, exit 1 if a gate fails",
    )
    suites = bench_cmd.add_subparsers(dest="suite", required=True, metavar="NAME")
    from .bench import perf_engines, perf_kernels, perf_robustness, perf_sparse
    from .bench.store import add_bench_arguments

    for bench in (perf_engines.BENCH, perf_sparse.BENCH, perf_kernels.BENCH, perf_robustness.BENCH):
        suite = suites.add_parser(bench.name, help=bench.help, description=bench.help)
        add_bench_arguments(suite, bench)

    lint_cmd = sub.add_parser(
        "lint",
        help="run the contract-aware static analysis (RNG/hash/clock/lock/purity rules) "
        "over source paths",
    )
    from .devtools.lint import add_cli_arguments as add_lint_cli_arguments

    add_lint_cli_arguments(lint_cmd)
    return parser


def _add_param_flags(cmd) -> None:
    """The five repeatable KEY=VALUE override flags, shared by simulate/sweep."""
    for flag, target in (
        ("--param", "protocol"),
        ("--topology-param", "topology"),
        ("--initial-param", "initial condition"),
        ("--delay-param", "delay model"),
        ("--stop-param", "stop criterion"),
    ):
        cmd.add_argument(
            flag,
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help=f"{target} parameter override (repeatable)",
        )
    cmd.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="NAME[:KEY=VALUE,...]",
        help="fault wrapper around the protocol, e.g. 'stubborn:fraction=0.05' "
        "(repeatable; applied first-flag-innermost)",
    )


def _resolve_scale(args) -> ExperimentScale:
    scale = FULL if args.scale == "full" else QUICK
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    # dataclasses.replace keeps every field not overridden, so new
    # ExperimentScale fields are never silently dropped here.
    return dataclasses.replace(scale, **overrides) if overrides else scale


def _parse_params(pairs: List[str], flag: str) -> Dict[str, str]:
    """Parse repeated ``KEY=VALUE`` flags; registry metadata coerces types."""
    out: Dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"{flag} expects KEY=VALUE, got {pair!r}")
        out[key] = value
    return out


def _parse_faults(pairs: List[str]) -> List[Dict[str, object]]:
    """Parse repeated ``--fault NAME[:KEY=VALUE,...]`` flags in order."""
    out: List[Dict[str, object]] = []
    for pair in pairs:
        name, sep, params = pair.partition(":")
        if not name:
            raise ConfigurationError(f"--fault expects NAME[:KEY=VALUE,...], got {pair!r}")
        overrides = _parse_params(params.split(",") if sep and params else [], "--fault")
        out.append({"name": name, "params": overrides})
    return out


def _spec_from_args(args) -> SimulationSpec:
    """Build the :class:`SimulationSpec` the ``simulate`` flags describe."""
    n = args.n
    if args.quick:
        n = max(2, int(round(n * QUICK.size_factor)))
    return SimulationSpec(
        protocol=args.protocol,
        n=n,
        protocol_params=_parse_params(args.param, "--param"),
        topology=args.topology,
        topology_params=_parse_params(args.topology_param, "--topology-param"),
        model=args.model,
        delay=args.delay,
        delay_params=_parse_params(args.delay_param, "--delay-param"),
        initial=args.initial,
        initial_params=_parse_params(args.initial_param, "--initial-param"),
        stop=args.stop,
        stop_params=_parse_params(args.stop_param, "--stop-param"),
        faults=_parse_faults(args.fault),
        reps=args.reps,
        seed=args.seed,
        max_steps=args.max_steps,
        max_time=args.max_time,
    )


def _run_simulate(args) -> int:
    spec = _spec_from_args(args)
    if args.spec_only:
        print(json.dumps(spec.to_dict(), indent=2))
        return 0
    result = simulate(spec)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    summary = result.summary()
    print(f"=== simulate {spec.protocol} on {spec.topology} (n={spec.n}, model={spec.model}) ===")
    print(f"engine: {result.engine}   reps: {summary['reps']}   wall-clock: {result.elapsed_seconds:.2f}s")
    rows = [
        ["converged", f"{summary['converged']}/{summary['reps']}"],
        ["plurality preserved", f"{summary['plurality_rate']:.2f}"],
        ["mean rounds", f"{summary['mean_rounds']:.1f}"],
        ["mean parallel time", f"{summary['mean_parallel_time']:.3f}"],
        ["std parallel time", f"{summary['std_parallel_time']:.3f}"],
        ["min / max parallel time", f"{summary['min_parallel_time']:.3f} / {summary['max_parallel_time']:.3f}"],
    ]
    print(format_table(["statistic", "value"], rows))
    return 0


def _axis_value(text: str):
    """Coerce one CLI axis value: int, then float, else string.

    Registry ``ParamSpec`` metadata re-coerces param-dict values at
    build time, so string passthrough is safe for protocol parameters;
    numeric spec fields (``n``, ``reps``, seeds, budgets) need the
    numeric form here.
    """
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    return text


def _parse_axes(pairs: List[str]) -> Dict[str, list]:
    """Parse repeated ``--axis FIELD=V1,V2,...`` flags in order."""
    axes: Dict[str, list] = {}
    for pair in pairs:
        field, sep, values = pair.partition("=")
        if not sep or not field:
            raise ConfigurationError(f"--axis expects FIELD=V1,V2,..., got {pair!r}")
        if field in axes:
            raise ConfigurationError(f"duplicate --axis {field!r}")
        axes[field] = [_axis_value(v) for v in values.split(",") if v != ""]
        if not axes[field]:
            raise ConfigurationError(f"--axis {field!r} has no values")
    return axes


def _campaign_from_args(args) -> CampaignSpec:
    """Build the :class:`CampaignSpec` the ``sweep`` flags describe."""
    axes = _parse_axes(args.axis)
    n = args.n
    if n is None:
        n_axis = axes.get("n")
        if not n_axis:
            raise ConfigurationError("pass --n or sweep an 'n' axis (--axis n=...)")
        n = int(n_axis[0])
    base = SimulationSpec(
        protocol=args.protocol,
        n=n,
        protocol_params=_parse_params(args.param, "--param"),
        topology=args.topology,
        topology_params=_parse_params(args.topology_param, "--topology-param"),
        model=args.model,
        delay=args.delay,
        delay_params=_parse_params(args.delay_param, "--delay-param"),
        initial=args.initial,
        initial_params=_parse_params(args.initial_param, "--initial-param"),
        stop=args.stop,
        stop_params=_parse_params(args.stop_param, "--stop-param"),
        faults=_parse_faults(args.fault),
        reps=args.reps,
        max_steps=args.max_steps,
        max_time=args.max_time,
    )
    return CampaignSpec(
        base=base,
        sweep=SweepSpec(axes=axes, mode="zip" if args.zip_axes else "product"),
        seed=args.seed,
        name=f"sweep/{args.protocol}",
    )


def _json_safe(value):
    """Strict-JSON form: NaN/±inf (unconverged-point statistics) -> null."""
    if isinstance(value, dict):
        return {key: _json_safe(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _run_sweep(args) -> int:
    campaign = _campaign_from_args(args)
    if args.spec_only:
        print(json.dumps(campaign.to_dict(), indent=2, sort_keys=True))
        return 0
    executor = args.executor or ("process" if args.workers > 1 else "serial")
    executor_obj = None
    if isinstance(executor, str) and executor.partition(":")[0] == "distributed":
        # Resolve eagerly so the bound address (port 0 = ephemeral) can
        # be announced before the campaign blocks waiting for workers.
        from .api.executors import resolve_executor

        executor_obj = resolve_executor(executor, workers=args.workers, chunksize=args.chunksize)
        host, port = executor_obj.address
        print(
            f"coordinator listening on {host}:{port} — start workers with: "
            f"python -m repro worker --connect {host}:{port}",
            file=sys.stderr,
        )
    try:
        result = run_campaign(
            campaign,
            executor=executor_obj if executor_obj is not None else executor,
            cache=args.cache_dir,
            workers=args.workers,
            chunksize=args.chunksize,
        )
    finally:
        if executor_obj is not None:
            executor_obj.close()
    if args.json:
        # stdout carries only the deterministic payload (a pure function
        # of the campaign spec and the simulation values, RFC-8259
        # strict); execution stats go to stderr so warm replays are
        # byte-identical.
        payload = result.to_dict()
        del payload["execution"]
        print(json.dumps(_json_safe(payload), indent=2, sort_keys=True))
        print(
            f"campaign: {result.size} point(s), executor={result.executor}, "
            f"engine_runs={result.engine_runs}, cache_hits={result.cache_hits}, "
            f"elapsed={result.elapsed_seconds:.2f}s",
            file=sys.stderr,
        )
        return 0
    print(result.format())
    return 0


def _print_registries() -> None:
    print()
    print("protocols (simulate <protocol>):")
    rows = []
    for name in PROTOCOLS.names():
        entry = PROTOCOLS.get(name)
        params = ", ".join(p.name for p in entry.params) or "-"
        rows.append([name, "/".join(entry.models()), params, entry.description])
    print(format_table(["protocol", "models", "params", "description"], rows))
    for label, registry in (
        ("topologies (--topology)", TOPOLOGIES),
        ("initial conditions (--initial)", INITIALS),
        ("delay models (--delay)", DELAYS),
        ("stop criteria (--stop)", STOPS),
        ("fault wrappers (--fault)", FAULTS),
    ):
        print()
        print(f"{label}:")
        rows = []
        for name in registry.names():
            entry = registry.get(name)
            params = ", ".join(
                f"{p.name}*" if p.required else p.name for p in entry.params
            ) or "-"
            rows.append([name, params, entry.description])
        print(format_table(["name", "params (* = required)", "description"], rows))
    print()
    print("executors (repro sweep --executor):")
    rows = []
    for name in sorted(EXECUTORS):
        doc = (EXECUTORS[name].__doc__ or "").strip()
        rows.append([name, doc.splitlines()[0] if doc else "-"])
    print(format_table(["executor", "description"], rows))
    print()
    print("lint rules (repro lint --select):")
    from .devtools.lint import iter_rules

    rows = []
    for rule in iter_rules():
        rows.append([rule.rule_id, "on" if rule.default else "off", rule.description])
    print(format_table(["rule", "default", "description"], rows))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        rows = [[eid] for eid in experiment_ids()]
        print(format_table(["experiment"], rows))
        _print_registries()
        return 0

    if args.command == "simulate":
        return _run_simulate(args)

    if args.command == "sweep":
        return _run_sweep(args)

    if args.command == "worker":
        from .api.distributed import run_worker

        return run_worker(args.connect, connect_retry=args.connect_retry)

    if args.command == "serve":
        from .api.serve import run_server

        return run_server(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            workers=args.workers,
            executor=args.executor,
            queue_limit=args.queue_limit,
            verbose=args.verbose,
        )

    if args.command == "run":
        scale = _resolve_scale(args)
        store = ResultStore(args.store) if args.store else None
        ids = experiment_ids() if args.experiment.lower() == "all" else [args.experiment]
        failures = 0
        for eid in ids:
            report = run_experiment(eid, scale=scale, store=store)
            print(report.format())
            print()
            if not report.all_checks_pass():
                failures += 1
        if failures:
            print(f"{failures} experiment(s) had failing shape checks", file=sys.stderr)
        return 1 if failures else 0

    if args.command == "show":
        store = ResultStore(args.store)
        payload = store.load(args.experiment)
        print(f"=== {payload['experiment_id']}: {payload['title']} ===")
        print(f"claim: {payload['claim']}")
        print()
        print(format_table(payload["headers"], payload["rows"]))
        for name, passed in payload.get("checks", {}).items():
            print(f"check {name}: {'PASS' if passed else 'FAIL'}")
        return 0

    if args.command == "report":
        from .bench.report import render_report

        print(render_report(ResultStore(args.store), title=args.title))
        return 0

    if args.command == "bench":
        from .bench.store import run_bench

        return run_bench(args.bench, args, parser.error)

    if args.command == "lint":
        from .devtools.lint import run_cli as run_lint_cli

        return run_lint_cli(args, parser.error)

    if args.command == "schedule":
        schedule = PhaseSchedule.compile(args.n, sync_enabled=not args.no_sync)
        print(schedule.describe())
        landmarks = [
            ["phase starts", ", ".join(str(s) for s in schedule.phase_starts)],
            ["sync starts", ", ".join(str(s) for s in schedule.sync_starts)],
            ["jump slots", ", ".join(str(s) for s in schedule.jump_slots)],
            ["part one length", str(schedule.part_one_length)],
            ["endgame ticks", str(schedule.endgame_ticks)],
            ["total length", str(schedule.total_length)],
        ]
        print(format_table(["landmark", "working-time slots"], landmarks))
        return 0

    return 2  # pragma: no cover - argparse enforces the command set


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
