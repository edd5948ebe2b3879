"""Wall-clock benchmark of the sparse-topology asynchronous fast path.

The workload is fixed — asynchronous Two-Choices from a 60/40 split —
on the two sparse topologies the acceptance criteria name: a 2-D torus
and a random 8-regular graph.  Engines covered, slowest to fastest:

* ``sequential/per-tick`` — :class:`~repro.engine.sequential.
  SequentialEngine` driving one Python ``seq_tick`` per node
  (``seq_tick_batch_loop``, the seed implementation); the baseline the
  ≥10x acceptance criterion is measured against, capped by ``n``.
* ``sequential/zip-apply`` — the PR-1-era hooks: presampled target
  identities, one Python ``zip`` apply-loop per tick (the fastest
  off-``K_n`` path before the hazard batches).
* ``routed/fastest-engine`` — whatever
  :func:`~repro.engine.dispatch.fastest_engine` resolves for the
  workload: :class:`~repro.engine.sequential.SequentialEngine`, whose
  default ``seq_tick_batch`` applies fixed 8192-tick blocks through the
  hazard-free batch core.  Its mixed-phase speedup against the
  zip-apply baseline is the ``sparse_seq_mixed_phase`` number.

Two sections:

* ``results`` — throughput on a fixed budget of ``budget_parallel * n``
  ticks from the mixed 60/40 start (every engine does identical work,
  so the speedup table is exact).  This window is the *worst case* for
  the hazard batches — the write rate is at its highest, so chunks are
  at their shortest;
* ``consensus`` — full runs to consensus, the workload the motivation
  quotes: the routed engine at the largest ``n``, and the zip-apply
  baseline at a capped ``n`` (its Python-loop cost per tick is phase-
  and n-independent, so its per-tick figure anchors the
  consensus-speedup criterion without a 16-second baseline run).  The
  coarsening and near-consensus phases that dominate these runs are
  where the actual-write hazard batches widen.

``python -m repro bench sparse`` runs :data:`BENCH`, which calls
:func:`benchmark_sparse`; ``--out`` persists the payload
(``BENCH_sparse.json`` at the repo root by convention).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.exceptions import ConfigurationError
from ..engine.dispatch import fastest_engine
from ..engine.base import never
from ..engine.sequential import SequentialEngine
from ..graphs.families import random_regular
from ..graphs.sparse import torus
from ..protocols.base import SequentialProtocol
from ..protocols.two_choices import TwoChoicesSequential
from ..workloads.initial import benchmark_split
from .store import Bench, Gate, bench_environment, parse_int_list

__all__ = ["BENCH", "benchmark_sparse", "format_payload"]

#: sizes of the standard sweep; the acceptance criterion lives at 1e5.
DEFAULT_NS = (10_000, 100_000)
QUICK_NS = (10_000,)

#: fixed throughput budget, in units of parallel time (ticks / n).
BUDGET_PARALLEL = 2

#: largest n the zip-apply baseline runs to consensus at (its per-tick
#: cost is constant, so this caps baseline wall time, not information).
ZIP_CONSENSUS_MAX_N = 10_000

_PER_TICK = "sequential/per-tick"
_ZIP_APPLY = "sequential/zip-apply"
_ROUTED = "routed/fastest-engine"


class _PerTickTwoChoices(TwoChoicesSequential):
    """The seed path: one Python ``seq_tick`` per node."""

    seq_tick_batch = SequentialProtocol.seq_tick_batch_loop


class _ZipApplyTwoChoices(TwoChoicesSequential):
    """The PR-1 hooks: presampled identities, Python apply loop."""

    def seq_tick_batch(self, state, nodes, topology, rng):
        nodes = np.asarray(nodes, dtype=np.int64)
        pairs = topology.sample_neighbor_pairs(nodes, rng)
        colors = state.colors
        for node, first, second in zip(nodes.tolist(), pairs[:, 0].tolist(), pairs[:, 1].tolist()):
            seen = colors[first]
            if seen == colors[second]:
                colors[node] = seen


def _topologies(n: int, seed: int) -> List:
    rows = next(r for r in range(int(np.sqrt(n)), 0, -1) if n % r == 0)
    return [
        ("torus", torus(rows, n // rows)),
        ("random-regular", random_regular(n, 8, seed=seed)),
    ]


def _engine_specs():
    """(key, per_tick_baseline, runner factory) rows."""

    def per_tick(topology, budget_ticks):
        engine = SequentialEngine(_PerTickTwoChoices(), topology)
        return lambda config, seed: engine.run(config, max_ticks=budget_ticks, stop=never, seed=seed)

    def zip_apply(topology, budget_ticks):
        engine = SequentialEngine(_ZipApplyTwoChoices(), topology)
        return lambda config, seed: engine.run(config, max_ticks=budget_ticks, stop=never, seed=seed)

    def routed(topology, budget_ticks):
        engine = fastest_engine(TwoChoicesSequential(), topology, model="sequential")
        runner = lambda config, seed: engine.run(config, max_ticks=budget_ticks, stop=never, seed=seed)  # noqa: E731
        runner.resolved_engine = type(engine).__name__
        return runner

    return [
        (_PER_TICK, True, per_tick),
        (_ZIP_APPLY, False, zip_apply),
        (_ROUTED, False, routed),
    ]


def benchmark_sparse(
    ns: Sequence[int] = DEFAULT_NS,
    trials: int = 3,
    seed: int = 20170725,
    per_tick_max_n: Optional[int] = None,
    consensus: bool = True,
) -> Dict:
    """Time the engine family on the sparse workloads for each ``n``.

    Every engine runs the identical fixed budget of
    ``BUDGET_PARALLEL * n`` ticks from the 60/40 split (the throughput
    table the speedups come from); the routed engine is then run to
    consensus at the largest ``n`` per topology.  The per-tick
    baseline is capped at *per_tick_max_n* for quick CI runs (its cost
    per tick is n-independent, so the speedup it anchors is too).
    """
    results: List[Dict] = []
    consensus_rows: List[Dict] = []
    specs = _engine_specs()
    for n in ns:
        config = benchmark_split(n)
        budget_ticks = BUDGET_PARALLEL * n
        for topo_name, topology in _topologies(n, seed):
            for key, is_baseline, factory in specs:
                if is_baseline and per_tick_max_n is not None and n > per_tick_max_n:
                    results.append(
                        {"engine": key, "topology": topo_name, "n": n, "skipped": True}
                    )
                    continue
                runner = factory(topology, budget_ticks)
                seconds = []
                ticks = []
                for trial in range(trials):
                    start = time.perf_counter()
                    result = runner(config, seed + trial)
                    seconds.append(time.perf_counter() - start)
                    ticks.append(result.rounds)
                row = {
                    "engine": key,
                    "topology": topo_name,
                    "n": int(n),
                    "skipped": False,
                    "trials": trials,
                    "mean_seconds": float(np.mean(seconds)),
                    "min_seconds": float(np.min(seconds)),
                    "mean_ticks": float(np.mean(ticks)),
                    "ns_per_tick": float(np.mean(seconds) / np.mean(ticks) * 1e9),
                }
                resolved = getattr(runner, "resolved_engine", None)
                if resolved is not None:
                    row["resolved_engine"] = resolved
                results.append(row)
            consensus_engines = []
            if consensus and n == max(ns):
                consensus_engines.append(
                    (_ROUTED, fastest_engine(TwoChoicesSequential(), topology, model="sequential"))
                )
            zip_ns = [m for m in ns if m <= ZIP_CONSENSUS_MAX_N]
            if consensus and zip_ns and n == max(zip_ns):
                consensus_engines.append(
                    ("sequential/zip-apply", SequentialEngine(_ZipApplyTwoChoices(), topology))
                )
            for engine_key, engine in consensus_engines:
                max_ticks = int(100 * n * max(np.log(n), 1.0))
                seconds = []
                ticks = []
                converged = True
                for trial in range(trials):
                    start = time.perf_counter()
                    result = engine.run(config, max_ticks=max_ticks, seed=seed + trial)
                    seconds.append(time.perf_counter() - start)
                    ticks.append(result.rounds)
                    converged = converged and result.converged
                consensus_rows.append(
                    {
                        "engine": engine_key,
                        "topology": topo_name,
                        "n": int(n),
                        "trials": trials,
                        "mean_seconds": float(np.mean(seconds)),
                        "mean_ticks": float(np.mean(ticks)),
                        "ns_per_tick": float(np.mean(seconds) / np.mean(ticks) * 1e9),
                        "min_ns_per_tick": float(
                            min(s / t for s, t in zip(seconds, ticks)) * 1e9
                        ),
                        "all_converged": bool(converged),
                    }
                )

    # Speedups per (topology, n) against both Python baselines.  Ratios
    # come from the best trial, not the mean: the small-n rows finish in
    # ~10 ms, where a single scheduler hiccup on a shared host skews a
    # 3-trial mean by 40% (identical code paths have measured 0.6x of
    # each other on mean timings).  Best-of-trials is the standard
    # noise-robust estimator; the means stay in the rows for posterity.
    speedups: Dict[str, Dict[str, Dict[str, float]]] = {}
    for entry in results:
        if entry.get("skipped") or entry["engine"] in (_PER_TICK, _ZIP_APPLY):
            continue
        rows = {
            r["engine"]: r
            for r in results
            if r["topology"] == entry["topology"] and r["n"] == entry["n"] and not r.get("skipped")
        }
        table = speedups.setdefault(entry["topology"], {}).setdefault(str(entry["n"]), {})
        for baseline in (_PER_TICK, _ZIP_APPLY):
            if baseline in rows:
                table[f"{entry['engine']} vs {baseline}"] = (
                    rows[baseline]["min_seconds"] / entry["min_seconds"]
                )

    criteria: Dict = {}
    # The acceptance criterion: >= 10x over the per-tick SequentialEngine
    # at the largest n where that baseline ran, on both topologies.
    for topo_name in ("torus", "random-regular"):
        table = speedups.get(topo_name, {})
        anchored = [int(n) for n, row in table.items() if f"{_ROUTED} vs {_PER_TICK}" in row]
        if not anchored:
            continue
        n_ref = max(anchored)
        per_tick_speedup = table[str(n_ref)][f"{_ROUTED} vs {_PER_TICK}"]
        slug = topo_name.replace("-", "_")
        criteria[f"sparse_seq_reference_n_{slug}"] = n_ref
        criteria[f"sparse_seq_speedup_vs_per_tick_{slug}"] = per_tick_speedup
        criteria[f"sparse_seq_ge_10x_vs_per_tick_{slug}"] = per_tick_speedup >= 10.0
        # The mixed phase at the smallest swept n, where the hazard
        # chunks are shortest: the routed engine stays within 25% of the
        # phase-independent zip-apply loop.
        n_mixed = min(int(m) for m in table)
        routed_speedup = table[str(n_mixed)].get(f"{_ROUTED} vs {_ZIP_APPLY}")
        if routed_speedup is not None:
            criteria[f"sparse_seq_mixed_phase_n_{slug}"] = n_mixed
            criteria[f"sparse_seq_mixed_phase_speedup_vs_zip_apply_{slug}"] = routed_speedup
            criteria[f"sparse_seq_mixed_phase_healed_{slug}"] = routed_speedup >= 0.75
    # The consensus workload (what the motivation quotes): per-tick
    # wall cost of full runs, routed vs the phase-independent zip loop.
    for topo_name in ("torus", "random-regular"):
        rows = {
            r["engine"]: r for r in consensus_rows if r["topology"] == topo_name
        }
        routed_row = rows.get(_ROUTED)
        zip_row = rows.get(_ZIP_APPLY)
        slug = topo_name.replace("-", "_")
        if routed_row and zip_row:
            speedup = zip_row["min_ns_per_tick"] / routed_row["min_ns_per_tick"]
            criteria[f"consensus_speedup_vs_zip_apply_{slug}"] = speedup
            criteria[f"consensus_faster_than_zip_apply_{slug}"] = speedup > 1.0
    regular_consensus = [
        r
        for r in consensus_rows
        if r["topology"] == "random-regular" and r["engine"] == _ROUTED
    ]
    if regular_consensus:
        criteria["consensus_random_regular_converged"] = bool(
            all(r["all_converged"] for r in regular_consensus)
        )

    return {
        "benchmark": "sparse-engines/async-two-choices",
        "workload": (
            f"Two-Choices, counts (0.6n, 0.4n), {BUDGET_PARALLEL}n-tick throughput budget "
            "+ routed run to consensus at max n"
        ),
        "topologies": ["torus", "random-regular (degree 8)"],
        "ns": [int(n) for n in ns],
        "trials": trials,
        "seed": seed,
        "budget_parallel": BUDGET_PARALLEL,
        "baseline": _PER_TICK,
        "results": results,
        "consensus": consensus_rows,
        "speedups": speedups,
        "criteria": criteria,
        "environment": bench_environment(),
    }


def format_payload(payload: Dict, args=None) -> str:
    """Human-readable tables of the payload for terminal output."""
    from .tables import format_table

    rows = []
    for entry in payload["results"]:
        if entry.get("skipped"):
            rows.append([entry["engine"], entry["topology"], entry["n"], "skipped", ""])
        else:
            rows.append(
                [
                    entry["engine"],
                    entry["topology"],
                    entry["n"],
                    f"{entry['mean_seconds']:.3f}s",
                    f"{entry['ns_per_tick']:.0f}ns",
                ]
            )
    lines = [format_table(["engine", "topology", "n", "mean wall", "per tick"], rows)]
    for topo_name, per_n in payload["speedups"].items():
        for n, table in per_n.items():
            pretty = ", ".join(f"{key} {value:.1f}x" for key, value in sorted(table.items()))
            lines.append(f"speedups on {topo_name} at n={n}: {pretty}")
    if payload["consensus"]:
        lines.append("")
        lines.append("to consensus:")
        consensus_rows = [
            [
                entry["engine"],
                entry["topology"],
                entry["n"],
                f"{entry['mean_seconds']:.3f}s",
                f"{entry['mean_ticks']:.0f}",
                f"{entry['ns_per_tick']:.0f}ns",
                "yes" if entry["all_converged"] else "NO",
            ]
            for entry in payload["consensus"]
        ]
        lines.append(
            format_table(
                ["engine", "topology", "n", "mean wall", "mean ticks", "per tick", "converged"],
                consensus_rows,
            )
        )
    for name, value in payload["criteria"].items():
        lines.append(f"criterion {name}: {value}")
    return "\n".join(lines)


def _options(parser) -> None:
    parser.add_argument("--ns", default=None, help="comma-separated list of n values")
    parser.add_argument("--seed", type=int, default=20170725)
    parser.add_argument(
        "--no-consensus", action="store_true", help="skip the run-to-consensus section"
    )


def _run(args) -> Dict:
    if args.ns is not None:
        ns = parse_int_list(args.ns, "--ns")
        if any(n < 16 for n in ns):
            raise ConfigurationError(f"--ns values must be >= 16, got {ns}")
    else:
        ns = list(QUICK_NS if args.quick else DEFAULT_NS)
    return benchmark_sparse(
        ns=ns,
        trials=2 if args.quick and args.trials == 3 else args.trials,
        seed=args.seed,
        per_tick_max_n=100_000,
        consensus=not args.no_consensus,
    )


BENCH = Bench(
    name="sparse",
    help="the sparse-topology hazard-batched tick path on torus and random-regular",
    run=_run,
    format=format_payload,
    options=_options,
    quick_help="CI scale: n = 1e4 only, 2 trials",
    trials=3,
    # >= 10x over per-tick, faster to consensus than the zip-apply hooks,
    # and the small-n mixed phase routed at least on par with zip-apply.
    gates=tuple(
        Gate(f"{criterion}_{slug}")
        for slug in ("torus", "random_regular")
        for criterion in (
            "sparse_seq_ge_10x_vs_per_tick",
            "consensus_faster_than_zip_apply",
            "sparse_seq_mixed_phase_healed",
        )
    )
    + (Gate("consensus_random_regular_converged"),),
)
