"""Wall-clock benchmark of the engine family on one async workload.

The workload is fixed — asynchronous Two-Choices on ``K_n`` from a
60/40 two-colour split, run to consensus — so the numbers track the
*engines*, not the protocol zoo.  Engines covered:

* ``sequential/per-tick`` — the historical one-``seq_tick``-per-node
  loop (the seed implementation), forced via a subclass that restores
  the base-class ``seq_tick_batch``; this is the baseline the speedup
  figures are measured against.
* ``sequential`` / ``continuous`` — the agent-level engines with the
  vectorised ``seq_tick_batch`` hooks.
* ``counts-sequential`` / ``counts-continuous`` — the batched tick
  engines, built directly: :func:`repro.engine.dispatch.fastest_engine`
  routes ``K_n`` runs below its counts crossover to the agent engines,
  so dispatching would time the wrong engine at small ``n``.

On top of the single-run engine table, the payload carries an
*ensemble* section: for each ``R`` in ``ensemble_reps`` it times R
replications the looped way (one ``CountsSequentialEngine.run`` per
replication — the ``run_trials`` path before the ensemble layer)
against one ``EnsembleCountsSequentialEngine.run_ensemble`` call, and
records the speedup.  The acceptance criterion of the ensemble PR —
at least 10x over the looped path at ``n = 10^6``, ``R = 100`` — is
emitted under ``criteria``.

``python -m repro bench engines`` runs :data:`BENCH`, which calls
:func:`benchmark_engines`; ``--out`` persists the JSON payload
(``BENCH_engines.json`` at the repo root by convention) so the perf
trajectory stays comparable across PRs.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.exceptions import ConfigurationError
from ..core.rng import spawn_seed_sequences
from ..engine.continuous import ContinuousEngine
from ..engine.counts_async import CountsContinuousEngine, CountsSequentialEngine
from ..engine.ensemble import EnsembleCountsSequentialEngine
from ..engine.sequential import SequentialEngine
from ..graphs.complete import CompleteGraph
from ..protocols.base import SequentialProtocol
from ..protocols.two_choices import TwoChoicesSequential, TwoChoicesSequentialCounts
from ..workloads.initial import benchmark_split
from .store import Bench, Gate, bench_environment, parse_int_list

__all__ = ["BENCH", "benchmark_engines", "format_payload"]

#: sizes of the standard sweep (the full run adds the headline 10^8).
DEFAULT_NS = (10_000, 100_000, 1_000_000)
QUICK_NS = (10_000, 100_000)

#: replication counts of the looped-vs-ensemble comparison.
ENSEMBLE_REPS = (10, 100)

_BASELINE = "sequential/per-tick"


class _SeedPathTwoChoices(TwoChoicesSequential):
    """Two-Choices with the vectorised batch hook disabled.

    Pinning ``seq_tick_batch`` to the reference loop makes the engines
    fall back to one Python ``seq_tick`` per node — byte-for-byte the
    seed implementation's work loop — giving the speedup baseline.
    """

    seq_tick_batch = SequentialProtocol.seq_tick_batch_loop


def _engine_specs():
    """(key, max_n, runner_factory) for every timed engine."""

    def per_tick(n):
        engine = SequentialEngine(_SeedPathTwoChoices(), CompleteGraph(n))
        return lambda config, seed: engine.run(config, seed=seed)

    def sequential(n):
        engine = SequentialEngine(TwoChoicesSequential(), CompleteGraph(n))
        return lambda config, seed: engine.run(config, seed=seed)

    def continuous(n):
        engine = ContinuousEngine(TwoChoicesSequential(), CompleteGraph(n))
        return lambda config, seed: engine.run(config, seed=seed)

    def counts_sequential(n):
        engine = CountsSequentialEngine(TwoChoicesSequentialCounts())
        return lambda config, seed: engine.run(config, seed=seed)

    def counts_continuous(n):
        engine = CountsContinuousEngine(TwoChoicesSequentialCounts())
        return lambda config, seed: engine.run(config, seed=seed)

    return [
        (_BASELINE, 100_000, per_tick),
        ("sequential", 1_000_000, sequential),
        ("continuous", 1_000_000, continuous),
        ("counts-sequential", None, counts_sequential),
        ("counts-continuous", None, counts_continuous),
    ]


def _benchmark_ensemble(
    ns: Sequence[int],
    ensemble_reps: Sequence[int],
    seed: int,
) -> List[Dict]:
    """Looped vs ensemble replication timing on async Two-Choices.

    The looped side is the pre-ensemble ``run_trials`` path: R
    independent ``CountsSequentialEngine.run`` calls on spawned child
    streams.  The ensemble side is a single
    ``EnsembleCountsSequentialEngine.run_ensemble`` call advancing all
    R replications per numpy batch.
    """
    rows: List[Dict] = []
    for n in ns:
        if n > 1_000_000:
            # The criterion lives at n = 1e6; above that the looped
            # side alone would dominate the benchmark's wall time.
            continue
        config = benchmark_split(n)
        looped_engine = CountsSequentialEngine(TwoChoicesSequentialCounts())
        ensemble_engine = EnsembleCountsSequentialEngine(TwoChoicesSequentialCounts())
        for reps in ensemble_reps:
            start = time.perf_counter()
            looped = [
                looped_engine.run(config, seed=child)
                for child in spawn_seed_sequences(seed, reps)
            ]
            looped_seconds = time.perf_counter() - start
            start = time.perf_counter()
            ensembled = ensemble_engine.run_ensemble(config, n_reps=reps, seed=seed)
            ensemble_seconds = time.perf_counter() - start
            rows.append(
                {
                    "n": int(n),
                    "reps": int(reps),
                    "looped_seconds": looped_seconds,
                    "ensemble_seconds": ensemble_seconds,
                    "speedup": looped_seconds / ensemble_seconds,
                    "all_converged": bool(
                        all(r.converged for r in looped) and all(r.converged for r in ensembled)
                    ),
                }
            )
    return rows


def benchmark_engines(
    ns: Sequence[int] = DEFAULT_NS,
    trials: int = 3,
    seed: int = 20170725,
    baseline_max_n: Optional[int] = None,
    ensemble_reps: Sequence[int] = ENSEMBLE_REPS,
) -> Dict:
    """Time every engine on the fixed workload for each ``n`` in *ns*.

    Returns the JSON-ready payload: per-(n, engine) mean seconds and
    run statistics, per-n speedups relative to the per-tick baseline,
    the looped-vs-ensemble replication comparison for each ``R`` in
    *ensemble_reps* (pass an empty sequence to skip it), and the
    headline criteria other tooling checks mechanically.  Engines
    whose cost scales with ``n`` in Python are skipped above their
    ``max_n`` (recorded as ``skipped`` entries so the table shape is
    stable); *baseline_max_n* lowers the per-tick cap for quick CI
    runs.
    """
    specs = _engine_specs()
    results: List[Dict] = []
    for n in ns:
        config = benchmark_split(n)
        for key, max_n, factory in specs:
            cap = max_n
            if key == _BASELINE and baseline_max_n is not None:
                cap = min(baseline_max_n, max_n)
            if cap is not None and n > cap:
                results.append({"engine": key, "n": n, "skipped": True})
                continue
            runner = factory(n)
            seconds = []
            parallel_times = []
            converged = True
            for trial in range(trials):
                start = time.perf_counter()
                result = runner(config, seed + trial)
                seconds.append(time.perf_counter() - start)
                parallel_times.append(result.parallel_time)
                converged = converged and result.converged
            results.append(
                {
                    "engine": key,
                    "n": n,
                    "skipped": False,
                    "trials": trials,
                    "mean_seconds": float(np.mean(seconds)),
                    "min_seconds": float(np.min(seconds)),
                    "mean_parallel_time": float(np.mean(parallel_times)),
                    "all_converged": bool(converged),
                }
            )

    speedups: Dict[str, Dict[str, float]] = {}
    for n in ns:
        rows = {r["engine"]: r for r in results if r["n"] == n and not r.get("skipped")}
        base = rows.get(_BASELINE)
        if base is None:
            continue
        speedups[str(n)] = {
            key: base["mean_seconds"] / row["mean_seconds"]
            for key, row in rows.items()
            if key != _BASELINE
        }

    criteria = {}
    # Speedup criterion at the largest n where the per-tick baseline
    # actually ran (quick CI caps the baseline at 1e4, so the criterion
    # is still emitted there instead of silently vanishing).
    common = sorted(int(n) for n, per_engine in speedups.items() if "counts-sequential" in per_engine)
    if common:
        n_ref = common[-1]
        speedup = speedups[str(n_ref)]["counts-sequential"]
        criteria["speedup_reference_n"] = n_ref
        criteria["counts_seq_speedup_vs_per_tick"] = speedup
        criteria["counts_seq_faster_than_per_tick"] = speedup > 1.0
        if n_ref >= 100_000:
            # The >= 20x figure is an n >= 1e5 claim (below that, fixed
            # per-batch overhead dominates); quick CI runs record the
            # plain speedup instead of a vacuously-failing flag.
            criteria["counts_seq_speedup_at_1e5"] = speedups["100000"]["counts-sequential"]
            criteria["counts_seq_speedup_at_1e5_ge_20x"] = (
                speedups["100000"]["counts-sequential"] >= 20.0
            )
    headline = [
        r for r in results if r["engine"] == "counts-sequential" and r["n"] >= 10**8 and not r.get("skipped")
    ]
    if headline:
        criteria["counts_seq_1e8_seconds"] = headline[0]["mean_seconds"]
        criteria["counts_seq_1e8_under_60s"] = headline[0]["mean_seconds"] < 60.0

    ensemble_rows = _benchmark_ensemble(ns, ensemble_reps, seed) if ensemble_reps else []
    if ensemble_rows:
        # Criterion at the largest covered (n, R) cell: the ensemble PR
        # promises >= 10x over the looped run_trials path at n = 1e6,
        # R = 100; quick CI runs record the same cell at their own
        # largest n instead of silently dropping the criterion.
        top = max(ensemble_rows, key=lambda row: (row["n"], row["reps"]))
        criteria["ensemble_reference_n"] = top["n"]
        criteria["ensemble_reference_reps"] = top["reps"]
        criteria["ensemble_speedup_vs_looped"] = top["speedup"]
        criteria["ensemble_faster_than_looped"] = top["speedup"] > 1.0
        if top["n"] >= 1_000_000 and top["reps"] >= 100:
            criteria["ensemble_speedup_at_1e6_r100_ge_10x"] = top["speedup"] >= 10.0

    return {
        "benchmark": "engine-family/async-two-choices",
        "workload": "Two-Choices on K_n, counts (0.6n, 0.4n), run to consensus",
        "ns": [int(n) for n in ns],
        "trials": trials,
        "seed": seed,
        "baseline": _BASELINE,
        "results": results,
        "speedups_vs_per_tick": speedups,
        "ensemble": ensemble_rows,
        "criteria": criteria,
        "environment": bench_environment(),
    }


def format_payload(payload: Dict, args=None) -> str:
    """Human-readable table of the payload for terminal output."""
    from .tables import format_table

    rows = []
    for entry in payload["results"]:
        if entry.get("skipped"):
            rows.append([entry["engine"], entry["n"], "skipped", "", ""])
        else:
            rows.append(
                [
                    entry["engine"],
                    entry["n"],
                    f"{entry['mean_seconds']:.3f}s",
                    f"{entry['mean_parallel_time']:.1f}",
                    "yes" if entry["all_converged"] else "NO",
                ]
            )
    lines = [format_table(["engine", "n", "mean wall", "mean parallel time", "converged"], rows)]
    for n, per_engine in payload["speedups_vs_per_tick"].items():
        pretty = ", ".join(f"{key} {value:.0f}x" for key, value in sorted(per_engine.items()))
        lines.append(f"speedup vs {payload['baseline']} at n={n}: {pretty}")
    if payload.get("ensemble"):
        ensemble_rows = [
            [
                entry["n"],
                entry["reps"],
                f"{entry['looped_seconds']:.3f}s",
                f"{entry['ensemble_seconds']:.3f}s",
                f"{entry['speedup']:.1f}x",
                "yes" if entry["all_converged"] else "NO",
            ]
            for entry in payload["ensemble"]
        ]
        lines.append("")
        lines.append("replication paths (async Two-Choices, counts engines):")
        lines.append(
            format_table(["n", "reps", "looped", "ensemble", "speedup", "converged"], ensemble_rows)
        )
    for name, value in payload["criteria"].items():
        lines.append(f"criterion {name}: {value}")
    return "\n".join(lines)


def _options(parser) -> None:
    parser.add_argument("--ns", default=None, help="comma-separated list of n values")
    parser.add_argument("--seed", type=int, default=20170725)
    parser.add_argument(
        "--reps",
        default=None,
        help="comma-separated replication counts for the looped-vs-ensemble "
        "comparison (default 10,100; pass 0 to skip it)",
    )
    parser.add_argument(
        "--headline", action="store_true", help="add the n=1e8 counts-engine headline run"
    )


def _run(args) -> Dict:
    if args.ns is not None:
        ns = parse_int_list(args.ns, "--ns")
        if any(n < 2 for n in ns):
            raise ConfigurationError(f"--ns values must be >= 2, got {ns}")
    else:
        ns = list(QUICK_NS if args.quick else DEFAULT_NS)
    if args.headline and 10**8 not in ns:
        ns.append(10**8)
    if args.reps is not None:
        ensemble_reps = [reps for reps in parse_int_list(args.reps, "--reps") if reps > 0]
    else:
        ensemble_reps = list(ENSEMBLE_REPS)
    return benchmark_engines(
        ns=ns,
        trials=args.trials,
        seed=args.seed,
        baseline_max_n=10_000 if args.quick else None,
        ensemble_reps=ensemble_reps,
    )


def _counts_seq_beats(payload: Dict, rival: str, from_n: int) -> bool:
    """counts-sequential's mean wall beats *rival*'s at every n >= *from_n* where both ran."""
    means = {(r["engine"], r["n"]): r["mean_seconds"] for r in payload["results"] if not r.get("skipped")}
    return all(
        means[("counts-sequential", n)] < means[(rival, n)]
        for n in payload["ns"]
        if n >= from_n and ("counts-sequential", n) in means and (rival, n) in means
    )


def _converged(rows: List[Dict]) -> bool:
    return bool(rows) and all(row["all_converged"] for row in rows)


BENCH = Bench(
    name="engines",
    help="the engine family (incl. the K_n counts fast path) on async Two-Choices",
    run=_run,
    format=format_payload,
    options=_options,
    quick_help="CI scale: n in {1e4, 1e5}, per-tick baseline capped at 1e4",
    trials=3,
    gates=(
        Gate("ensemble_faster_than_looped"),
        Gate(
            "timed_runs_converged",
            holds=lambda p: _converged([r for r in p["results"] if not r.get("skipped")]),
        ),
        # The counts fast path always beats the seed per-tick baseline; it
        # beats the batched agent engines from n >= 1e5 (below that, fixed
        # per-batch numpy overhead dominates and everything is < 0.1 s).
        Gate("counts_seq_beats_per_tick", holds=lambda p: _counts_seq_beats(p, _BASELINE, 0)),
        Gate(
            "counts_seq_beats_sequential_from_1e5",
            holds=lambda p: _counts_seq_beats(p, "sequential", 100_000),
        ),
        Gate("ensemble_runs_converged", holds=lambda p: _converged(p["ensemble"])),
        # The ensemble path beats the looped run_trials path wherever the
        # per-run cost is dominated by batch-loop overhead (n >= 1e5, R >= 100).
        Gate(
            "ensemble_beats_looped_from_1e5_r100",
            holds=lambda p: all(
                row["speedup"] > 1.0
                for row in p["ensemble"]
                if row["n"] >= 100_000 and row["reps"] >= 100
            ),
        ),
    ),
)
