"""Robustness campaign driver: fault-injection phase-transition maps.

One call runs the whole suite of :mod:`repro.workloads.robustness`
campaigns — for each protocol in :data:`GRID_PROTOCOLS` and each fault
kind (loss / stubborn / byzantine), a fault-rate x initial-gap grid on
``K_n``, plus the many-colour leg (stubborn three-majority over
seeded Zipf-sampled initials, rate x exponent) — and folds each into a
phase map with its empirical critical rates.

Unlike the wall-clock ``perf_*`` modules this one's payload is a
*simulation* artifact: everything outside the ``"execution"`` block is
a pure function of the campaign specs and the master seed, so a warm
replay from the result cache reproduces it byte-for-byte with zero
engine runs (the cold/warm identity contract CI's robustness-smoke job
pins).  Criteria:

* ``zero_fault_consensus_*`` — every fault-free cell converges in
  every replication (the suite's sanity anchor: rate 0 expands to the
  unwrapped spec, so this gates the plain protocols too);
* ``fault_injection_bites_*`` — at the largest swept rate and the
  smallest bias, the protocol no longer always succeeds (consensus
  within budget *on the initial plurality*) — the injected faults
  measurably degrade the guarantee.  Asserted only
  when ``degradation_assertable`` (enough replications per cell);
  quick CI scale records the numbers and warns instead.

``python -m repro bench robustness`` runs :data:`BENCH`, which calls
:func:`benchmark_robustness`; ``--out`` persists the payload
(``BENCH_robustness.json`` at the repo root by convention).
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, List, Optional

from ..api.campaign import run_campaign
from ..core.exceptions import ConfigurationError
from ..workloads.robustness import (
    FAULT_KINDS,
    critical_rates,
    phase_map,
    robustness_campaign,
    zipf_robustness_campaign,
)
from .store import Bench, Gate, bench_environment

__all__ = ["BENCH", "benchmark_robustness", "format_payload"]

#: protocols every fault kind is mapped for (both have tick footprints,
#: so the fault wrappers keep their hazard-batched fast path).
GRID_PROTOCOLS = ("two-choices", "three-majority")

#: the standard grids.  ``max_steps_parallel`` is the per-replication
#: tick budget in units of parallel time (ticks / n): past the phase
#: boundary the honest nodes never settle, so the budget — not the
#: engine default of ``50 ln n`` — is what caps those cells.
DEFAULT_SCALE = {
    "n": 400,
    "reps": 6,
    "loss_rates": (0.0, 0.2, 0.4, 0.6),
    "adversary_rates": (0.0, 0.05, 0.1, 0.2),
    "gaps": (20, 60, 120),
    "zipf_rates": (0.0, 0.05, 0.1, 0.2),
    "zipf_alphas": (0.5, 1.0, 1.5),
    "zipf_k": 8,
    "max_steps_parallel": 80,
}

#: CI scale: a 2x2 corner of every map, 2 replications per cell.
QUICK_SCALE = {
    "n": 120,
    "reps": 2,
    "loss_rates": (0.0, 0.5),
    "adversary_rates": (0.0, 0.15),
    "gaps": (12, 40),
    "zipf_rates": (0.0, 0.15),
    "zipf_alphas": (0.5, 1.5),
    "zipf_k": 6,
    "max_steps_parallel": 60,
}

#: fewest replications per cell for the degradation booleans to be
#: asserted rather than recorded-and-warned (QUICK's 2 are too noisy).
ASSERTABLE_REPS = 4


def _slug(protocol: str, fault: str) -> str:
    return f"{protocol}_{fault}".replace("-", "_")


def benchmark_robustness(
    quick: bool = False,
    seed: int = 20170725,
    cache=None,
    workers: int = 1,
    scale: Optional[Dict] = None,
) -> Dict:
    """Run every robustness campaign and assemble the phase-map payload.

    Parameters
    ----------
    quick:
        Use :data:`QUICK_SCALE` instead of :data:`DEFAULT_SCALE`.
    seed:
        Master seed shared by every campaign (per-point seeds derive
        from it; it also pins the Zipf initial draw and the
        faulty-node masks).
    cache:
        ``None``, a directory path, or a
        :class:`~repro.api.cache.ResultCache` — forwarded to
        :func:`~repro.api.campaign.run_campaign`, so a warm directory
        replays the whole suite without touching an engine.
    workers:
        ``> 1`` fans campaign points over the process executor
        (value-identical to serial by the campaign seeding rule).
    scale:
        Explicit overrides merged over the selected scale dict.
    """
    params = dict(QUICK_SCALE if quick else DEFAULT_SCALE)
    if scale:
        params.update(scale)
    n = int(params["n"])
    reps = int(params["reps"])
    max_steps = int(params["max_steps_parallel"] * n)
    executor = "process" if workers > 1 else "serial"

    grids: List[Dict] = []
    engine_runs = 0
    cache_hits = 0
    start = time.perf_counter()
    for protocol in GRID_PROTOCOLS:
        for fault in FAULT_KINDS:
            rates = params["loss_rates"] if fault == "loss" else params["adversary_rates"]
            campaign = robustness_campaign(
                protocol,
                fault,
                rates,
                params["gaps"],
                n=n,
                reps=reps,
                seed=seed,
                max_steps=max_steps,
            )
            result = run_campaign(campaign, executor=executor, cache=cache, workers=workers)
            engine_runs += result.engine_runs
            cache_hits += result.cache_hits
            folded = phase_map(result, rates, params["gaps"])
            grids.append(
                {
                    "campaign": campaign.name,
                    "protocol": protocol,
                    "fault": fault,
                    "initial": "two-colors",
                    "n": n,
                    "reps": reps,
                    "max_steps": max_steps,
                    "phase_map": folded,
                    "critical_rates": critical_rates(folded),
                }
            )
    zipf = zipf_robustness_campaign(
        "three-majority",
        "stubborn",
        params["zipf_rates"],
        params["zipf_alphas"],
        n=n,
        k=int(params["zipf_k"]),
        reps=reps,
        seed=seed,
        init_seed=seed,
        max_steps=max_steps,
    )
    result = run_campaign(zipf, executor=executor, cache=cache, workers=workers)
    engine_runs += result.engine_runs
    cache_hits += result.cache_hits
    folded = phase_map(result, params["zipf_rates"], params["zipf_alphas"])
    grids.append(
        {
            "campaign": zipf.name,
            "protocol": "three-majority",
            "fault": "stubborn",
            "initial": "zipf-sampled",
            "n": n,
            "reps": reps,
            "max_steps": max_steps,
            "phase_map": folded,
            "critical_rates": critical_rates(folded),
        }
    )
    elapsed = time.perf_counter() - start

    criteria: Dict = {"degradation_assertable": reps >= ASSERTABLE_REPS}
    for grid in grids:
        folded = grid["phase_map"]
        slug = _slug(grid["protocol"], grid["fault"])
        if grid["initial"] == "zipf-sampled":
            slug = f"zipf_{slug}"
        # Rate 0 is the unwrapped spec; its whole row must converge.
        zero_row = min(folded["consensus_rate"][0])
        criteria[f"zero_fault_consensus_{slug}"] = zero_row
        criteria[f"zero_fault_consensus_ok_{slug}"] = zero_row == 1.0
        # The hardest cell: largest swept rate, smallest initial bias.
        # Loss degrades convergence within the budget, byzantine flips
        # the winner while still converging, stubborn does both — so
        # "the faults bite" is the min of the two rates dipping.
        worst = min(folded["consensus_rate"][-1][0], folded["plurality_rate"][-1][0])
        criteria[f"max_fault_success_{slug}"] = worst
        criteria[f"fault_injection_bites_{slug}"] = worst < 1.0

    return {
        "benchmark": "robustness/fault-injection",
        "workload": (
            "fault rate x initial bias phase maps on K_n: loss/stubborn/byzantine "
            "wrappers over two-colour gaps, plus stubborn three-majority over "
            "Zipf-sampled many-colour initials"
        ),
        "protocols": list(GRID_PROTOCOLS),
        "faults": list(FAULT_KINDS),
        "scale": {key: list(v) if isinstance(v, tuple) else v for key, v in params.items()},
        "seed": int(seed),
        "grids": grids,
        "criteria": criteria,
        "environment": bench_environment(),
        "execution": {
            "engine_runs": engine_runs,
            "cache_hits": cache_hits,
            "elapsed_seconds": elapsed,
            "executor": executor,
        },
    }


def format_payload(payload: Dict, args=None) -> str:
    """Human-readable phase-map tables for terminal output; with
    ``--json``, the deterministic payload (everything but ``execution``)."""
    from .tables import format_table

    if args is not None and args.json:
        deterministic = {key: v for key, v in payload.items() if key != "execution"}
        return json.dumps(deterministic, indent=2, sort_keys=True)
    lines: List[str] = []
    for grid in payload["grids"]:
        folded = grid["phase_map"]
        bias_label = "alpha" if grid["initial"] == "zipf-sampled" else "gap"
        lines.append(
            f"{grid['campaign']}: n={grid['n']}, reps={grid['reps']}, "
            f"budget={grid['max_steps']} ticks (cell = consensus/plurality rate)"
        )
        header = [f"rate \\ {bias_label}"] + [f"{bias:g}" for bias in folded["biases"]]
        rows = []
        for rate, consensus, plurality in zip(
            folded["rates"], folded["consensus_rate"], folded["plurality_rate"]
        ):
            rows.append(
                [f"{rate:g}"]
                + [f"{c:.2f}/{p:.2f}" for c, p in zip(consensus, plurality)]
            )
        lines.append(format_table(header, rows))
        pretty = ", ".join(
            f"{bias_label}={bias:g}: {'none' if rate is None else f'{rate:g}'}"
            for bias, rate in zip(folded["biases"], grid["critical_rates"])
        )
        lines.append(f"critical rates (plurality >= 0.5): {pretty}")
        lines.append("")
    for name, value in payload["criteria"].items():
        lines.append(f"criterion {name}: {value}")
    return "\n".join(lines)


def _options(parser) -> None:
    parser.add_argument("--seed", type=int, default=20170725, help="master campaign seed")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache (a warm directory replays the suite "
        "with engine_runs=0 and byte-identical deterministic output)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per campaign (>1 selects the process executor)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the deterministic payload as JSON on stdout (execution stats go "
        "to stderr, so warm replays are byte-identical)",
    )


def _run(args) -> Dict:
    if args.workers < 1:
        raise ConfigurationError(f"--workers must be >= 1, got {args.workers}")
    payload = benchmark_robustness(
        quick=args.quick, seed=args.seed, cache=args.cache_dir, workers=args.workers
    )
    execution = payload["execution"]
    print(
        f"robustness: engine_runs={execution['engine_runs']}, "
        f"cache_hits={execution['cache_hits']}, "
        f"elapsed={execution['elapsed_seconds']:.2f}s",
        file=sys.stderr,
    )
    return payload


_SLUGS = [_slug(protocol, fault) for protocol in GRID_PROTOCOLS for fault in FAULT_KINDS]
_SLUGS.append(f"zipf_{_slug('three-majority', 'stubborn')}")

BENCH = Bench(
    name="robustness",
    help="the fault-injection robustness suite: phase-transition maps under "
    "loss/stubborn/byzantine faults",
    run=_run,
    format=format_payload,
    options=_options,
    quick_help="CI scale: 2x2 corner of every map, 2 reps",
    gates=tuple(Gate(f"zero_fault_consensus_ok_{slug}") for slug in _SLUGS)
    + tuple(
        Gate(
            f"fault_injection_bites_{slug}",
            applicable="degradation_assertable",
            reason=f"fewer than {ASSERTABLE_REPS} replications per cell; degradation is "
            f"recorded, asserted at full scale (measured {{max_fault_success_{slug}}})",
        )
        for slug in _SLUGS
    ),
)
