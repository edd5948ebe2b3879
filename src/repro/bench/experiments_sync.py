"""Experiments T1–T5 and T11: the synchronous-model claims.

See DESIGN.md section 3 for the experiment index.  Every function takes
an :class:`~repro.bench.harness.ExperimentScale` and returns an
:class:`~repro.bench.harness.ExperimentReport` whose ``checks`` encode
the theorem's *shape* (who wins, growth exponents, crossovers).

A recurring subtlety: Theorem 1.1's run time is driven by ``n / c1``,
not by ``k`` directly.  With the gap pinned at ``z*sqrt(n log n)`` and
balanced runners-up, ``c1 = n/k + gap`` saturates towards the gap as
``k`` grows, so ``n/c1`` caps at ``~sqrt(n / log n)``; the linear-in-k
regime therefore requires ``k << sqrt(n / log n)``, which the sweeps
below respect (and the checks are phrased against ``n/c1``, the
quantity the theorem actually names).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..analysis import statistics as stats
from ..analysis import theory
from ..analysis.convergence import per_phase_ratio_growth, ratio_trace
from ..api import CampaignSpec, SimulationSpec, SweepSpec, run_campaign
from ..engine.dispatch import COUNTS_TICK_CROSSOVER
from ..protocols.one_extra_bit import default_bp_rounds
from .harness import ExperimentReport, ExperimentScale, timed

__all__ = [
    "experiment_t1_two_choices_runtime",
    "experiment_t2_two_choices_lower_bound",
    "experiment_t3_bias_threshold",
    "experiment_t4_one_extra_bit",
    "experiment_t5_quadratic_growth",
    "experiment_t11_protocol_comparison",
]


def _sync_base(protocol, n, initial, initial_params, trials, max_rounds=1_000_000):
    """The campaign base of one synchronous-model sweep (seed left to axes)."""
    return SimulationSpec(
        protocol=protocol,
        n=n,
        model="synchronous",
        initial=initial,
        initial_params=dict(initial_params),
        reps=trials,
        max_steps=max_rounds,
    )


def _campaign_grid(base, cells, name):
    """Run one zipped campaign over explicit per-cell overrides.

    Every T-series sweep below is one campaign: *cells* are override
    dicts (sweep coordinates plus the historical per-cell ``"seed"``),
    zipped into axes so the expansion order is the cell order.  The
    serial executor keeps the drivers value-for-value with their
    pre-campaign form; per-point ``SimulationResult``s come back in
    cell order.
    """
    axes = {key: [cell[key] for cell in cells] for key in cells[0]}
    campaign = CampaignSpec(base=base, sweep=SweepSpec(axes=axes, mode="zip"), name=name)
    return [point.result for point in run_campaign(campaign, executor="serial").points]


def _stats(sim):
    """Mean rounds-to-consensus, win rate, counts, and the initial config.

    The campaign routed each cell through ``simulate`` with
    ``n_reps=trials``, so every counts protocol (Two-Choices, Voter,
    3-Majority, USD, OneExtraBit) advances all replications per numpy
    batch on the ensemble round engine.  The initial configuration is taken from the
    runs themselves, so theory predictions are computed on the
    simulated workload rather than a second hand-built copy.
    """
    rounds = [r.rounds for r in sim.runs if r.converged]
    preserved = [r.plurality_preserved for r in sim.runs]
    mean = float(np.mean(rounds)) if rounds else float("nan")
    return mean, float(np.mean(preserved)), len(rounds), len(sim.runs), sim.runs[0].initial


def experiment_t1_two_choices_runtime(scale: ExperimentScale) -> ExperimentReport:
    """T1 — Theorem 1.1 upper bound: rounds = O((n/c1) * log n).

    Two sweeps: (a) fixed ``k`` (so ``n/c1`` is ~constant), growing
    ``n`` — rounds/log n must stay in a constant band; (b) fixed ``n``,
    growing ``k`` — rounds must stay below the ``(n/c1) log n`` envelope
    and grow monotonically with ``n/c1``.
    """
    with timed() as clock:
        k_fixed = 8
        ns = [scale.scaled(base) for base in (4_000, 16_000, 64_000, 256_000)]
        rows: List[List] = []
        per_log_n = []
        envelope_ratios = []
        n_sweep = _campaign_grid(
            _sync_base("two-choices", ns[0], "theorem-1-1-gap", {"k": k_fixed, "z": 2.0}, scale.trials),
            [{"n": n, "seed": scale.seed + n} for n in ns],
            name="T1/n-sweep",
        )
        for n, sim in zip(ns, n_sweep):
            mean, preserved, _, _, config = _stats(sim)
            predicted = theory.two_choices_rounds(n, config.c1)
            per_log_n.append(mean / math.log(n))
            envelope_ratios.append(mean / predicted)
            rows.append(["n-sweep", n, k_fixed, round(n / config.c1, 2), mean, predicted, mean / predicted, preserved])

        n_fixed = scale.scaled(128_000)
        ks = (2, 4, 8, 16, 32)
        k_rounds = []
        inv_fractions = []
        k_sweep = _campaign_grid(
            _sync_base("two-choices", n_fixed, "theorem-1-1-gap", {"z": 1.0}, scale.trials),
            [{"initial_params.k": k, "seed": scale.seed + k} for k in ks],
            name="T1/k-sweep",
        )
        for k, sim in zip(ks, k_sweep):
            mean, preserved, _, _, config = _stats(sim)
            predicted = theory.two_choices_rounds(n_fixed, config.c1)
            envelope_ratios.append(mean / predicted)
            inv_fractions.append(n_fixed / config.c1)
            k_rounds.append(mean)
            rows.append(["k-sweep", n_fixed, k, round(n_fixed / config.c1, 2), mean, predicted, mean / predicted, preserved])

        log_ratio_spread = max(per_log_n) / min(per_log_n)
        checks = {
            # (a): rounds / log n confined to a constant band as n grows 64x.
            "log_n_scaling_band": log_ratio_spread < 2.5,
            # (b): rounds never exceed the (n/c1) log n envelope (constant ~1)...
            "upper_bound_envelope": max(envelope_ratios) <= 1.2,
            # ... and grow monotonically with the theorem's driver n/c1.
            "monotone_in_n_over_c1": all(a <= b * 1.05 for a, b in zip(k_rounds, k_rounds[1:])),
        }
    report = ExperimentReport(
        experiment_id="T1",
        title="Two-Choices runtime: O(n/c1 * log n) (Theorem 1.1 upper bound)",
        claim="rounds stay below the (n/c1)*log n envelope and track n/c1 and log n",
        headers=["sweep", "n", "k", "n/c1", "rounds", "(n/c1)log n", "ratio", "win-rate"],
        rows=rows,
        checks=checks,
        params={"ns": ns, "k_fixed": k_fixed, "n_fixed": n_fixed, "trials": scale.trials},
    )
    report.notes.append(f"rounds/log n spread across the n-sweep: x{log_ratio_spread:.2f} (predict O(1))")
    report.notes.append(f"largest rounds / envelope ratio: {max(envelope_ratios):.2f} (upper bound predicts <= constant)")
    report.elapsed_seconds = clock.elapsed
    return report


def experiment_t2_two_choices_lower_bound(scale: ExperimentScale) -> ExperimentReport:
    """T2 — Theorem 1.1 lower bound: with balanced runners-up
    (``c2 = ... = ck``) the process needs ``Omega(n/c1 + log n)`` rounds
    in expectation — a wall that grows with ``k`` (``n/c1 ~ k`` while
    ``k << sqrt(n/log n)``)."""
    with timed() as clock:
        n = scale.scaled(256_000)
        ks = [2, 4, 8, 16, 32, 64]
        rows = []
        means = []
        inv_fractions = []
        lower_ratios = []
        k_sweep = _campaign_grid(
            _sync_base("two-choices", n, "theorem-1-1-gap", {"z": 1.0}, scale.trials),
            [{"initial_params.k": k, "seed": scale.seed + 13 * k} for k in ks],
            name="T2/k-sweep",
        )
        for k, sim in zip(ks, k_sweep):
            mean, preserved, _, _, config = _stats(sim)
            lower = theory.two_choices_lower_bound(n, config.c1)
            means.append(mean)
            inv_fractions.append(n / config.c1)
            lower_ratios.append(mean / lower)
            rows.append([n, k, round(n / config.c1, 2), config.additive_bias, mean, lower, mean / lower, preserved])
        slope, _ = stats.fit_power_law(inv_fractions, means)
        checks = {
            # The measured time respects the Omega(n/c1 + log n) floor.
            "lower_bound_respected": min(lower_ratios) >= 0.3,
            # The wall grows with k (monotone, and large overall factor).
            "monotone_in_k": all(a <= b * 1.05 for a, b in zip(means, means[1:])),
            "k_wall_factor": means[-1] >= 3.0 * means[0],
            "grows_with_n_over_c1": slope >= 0.4,
        }
    report = ExperimentReport(
        experiment_id="T2",
        title="Two-Choices lower bound: Omega(n/c1 + log n) with balanced runners-up",
        claim="balanced c2=...=ck forces a rounds wall growing with n/c1 (~k for small k)",
        headers=["n", "k", "n/c1", "gap", "rounds", "n/c1+log n", "ratio", "win-rate"],
        rows=rows,
        checks=checks,
        params={"n": n, "ks": ks, "trials": scale.trials},
    )
    report.notes.append(f"power-law exponent of rounds vs n/c1: {slope:.2f} (lower bound predicts >= ~0.5 here)")
    report.notes.append(
        "with the gap pinned at sqrt(n log n), c1 -> gap as k grows, so n/c1 saturates at "
        "~sqrt(n/log n); the sweep stays below that knee"
    )
    report.elapsed_seconds = clock.elapsed
    return report


def experiment_t3_bias_threshold(scale: ExperimentScale) -> ExperimentReport:
    """T3 — Theorem 1.1 threshold: O(sqrt n) gaps lose with constant
    probability; z*sqrt(n log n) gaps win w.h.p."""
    with timed() as clock:
        n = scale.scaled(10_000)
        # 200-trial floor: the middle-gap win rates sit near the check
        # thresholds (~0.90 true rate at 1*sqrt(n)), so 40-trial
        # estimates flip checks on unlucky streams.  The ensemble
        # engine advances all trials per numpy batch, so the bigger
        # sample is essentially free.
        trials = max(200, scale.trials * 8)
        sqrt_n = math.sqrt(n)
        sqrt_nlogn = math.sqrt(n * math.log(n))
        gaps = [
            ("0", 2),  # gap 2 ~ effectively zero bias (kept >=1 for a unique plurality)
            ("0.5*sqrt(n)", int(0.5 * sqrt_n)),
            ("1*sqrt(n)", int(sqrt_n)),
            ("2*sqrt(n)", int(2 * sqrt_n)),
            ("1*sqrt(n log n)", int(sqrt_nlogn)),
            ("2*sqrt(n log n)", int(2 * sqrt_nlogn)),
        ]
        rows = []
        rates = []
        gap_sweep = _campaign_grid(
            _sync_base("two-choices", n, "two-colors", {}, trials),
            [{"initial_params.gap": gap, "seed": scale.seed + gap} for _, gap in gaps],
            name="T3/gap-sweep",
        )
        for (label, gap), sim in zip(gaps, gap_sweep):
            outcomes = [r.converged and r.winner == 0 for r in sim.runs]
            estimate = stats.estimate_success(outcomes)
            rates.append(estimate.rate)
            rows.append([label, gap, estimate.rate, estimate.low, estimate.high, trials])
        checks = {
            # C2 wins with constant probability at O(sqrt n) gap.
            "sqrt_n_gap_loses_often": rates[2] < 0.95,
            # The plurality wins w.h.p. above the sqrt(n log n) threshold.
            "threshold_gap_wins_whp": rates[-1] >= 0.95,
            "win_rate_increases_with_gap": rates[-1] >= rates[2] >= rates[0] - 0.15,
            "near_zero_gap_is_a_coin_flip": 0.2 <= rates[0] <= 0.8,
        }
    report = ExperimentReport(
        experiment_id="T3",
        title="Two-Choices bias threshold (Theorem 1.1, k=2)",
        claim="win probability transitions from ~1/2 to w.h.p. between sqrt(n) and sqrt(n log n)",
        headers=["gap", "value", "P(C1 wins)", "wilson-low", "wilson-high", "trials"],
        rows=rows,
        checks=checks,
        params={"n": n, "trials": trials},
    )
    report.elapsed_seconds = clock.elapsed
    return report


def experiment_t4_one_extra_bit(scale: ExperimentScale) -> ExperimentReport:
    """T4 — Theorem 1.2: OneExtraBit is polylog and overtakes
    Two-Choices once k (hence n/c1) grows — the crossover the memory
    bit buys."""
    with timed() as clock:
        n = scale.scaled(2_000_000)
        ks = [2, 8, 32, 128]
        trials = min(3, scale.trials)
        rows = []
        tc_means = []
        oeb_means = []
        cells = []
        for k in ks:
            cells.append({"protocol": "two-choices", "initial_params.k": k, "seed": scale.seed + k})
            cells.append({"protocol": "one-extra-bit", "initial_params.k": k, "seed": scale.seed + 7 * k})
        sims = iter(
            _campaign_grid(
                _sync_base("two-choices", n, "theorem-1-1-gap", {"z": 1.0}, trials),
                cells,
                name="T4/crossover",
            )
        )
        for k in ks:
            tc_mean, tc_win, _, _, config = _stats(next(sims))
            oeb_mean, oeb_win, _, _, _ = _stats(next(sims))
            predicted = theory.one_extra_bit_rounds(n, k, config.c1, config.c2)
            tc_means.append(tc_mean)
            oeb_means.append(oeb_mean)
            rows.append(
                [n, k, round(n / config.c1, 1), tc_mean, oeb_mean, predicted, tc_win, oeb_win,
                 "OEB" if oeb_mean < tc_mean else "TC"]
            )
        tc_slope, _ = stats.fit_power_law(ks, tc_means)
        oeb_slope, _ = stats.fit_power_law(ks, oeb_means)
        checks = {
            "two_choices_degrades_with_k": tc_slope >= 0.4,
            "one_extra_bit_stays_polylog": oeb_slope <= 0.3,
            "crossover_at_large_k": oeb_means[-1] < tc_means[-1],
            "two_choices_wins_at_k2": tc_means[0] < oeb_means[0],
        }
    report = ExperimentReport(
        experiment_id="T4",
        title="OneExtraBit vs Two-Choices: the memory-bit crossover (Theorem 1.2)",
        claim="Two-Choices rounds grow with k while OneExtraBit stays polylogarithmic",
        headers=["n", "k", "n/c1", "TC rounds", "OEB rounds", "OEB predicted", "TC win", "OEB win", "faster"],
        rows=rows,
        checks=checks,
        params={"n": n, "ks": ks, "trials": trials},
    )
    report.notes.append(f"power-law exponents vs k: TC {tc_slope:.2f} (grows), OEB {oeb_slope:.2f} (flat)")
    report.elapsed_seconds = clock.elapsed
    return report


def experiment_t5_quadratic_growth(scale: ExperimentScale) -> ExperimentReport:
    """T5 — Section 2: each phase squares the ratio c1/cj."""
    with timed() as clock:
        n = scale.scaled(1_000_000)
        k = 16
        ratio0 = 1.2
        phase_length = 1 + default_bp_rounds(n, k)
        # A singleton campaign: traced points are pinned to the driver
        # process by run_campaign, so the trace survives.
        campaign = CampaignSpec(
            base=SimulationSpec(
                protocol="one-extra-bit",
                n=n,
                model="synchronous",
                initial="multiplicative-bias",
                initial_params={"k": k, "ratio": ratio0},
                reps=1,
                max_steps=phase_length * 12,
                record_trace=True,
                trace_every=phase_length,
            ),
            sweep=SweepSpec(axes={"seed": [scale.seed]}, mode="zip"),
            name="T5/quadratic-growth",
        )
        result = run_campaign(campaign, executor="serial").points[0].result.runs[0]
        ratios = ratio_trace(result.trace)
        growth = per_phase_ratio_growth(list(ratios))
        rows = []
        for phase, value in enumerate(ratios):
            exponent = growth[phase] if phase < len(growth) else None
            rows.append([phase, float(value) if np.isfinite(value) else None, exponent])
        usable = [g for g in growth if g is not None]
        checks = {
            "amplification_at_least_quadraticish": bool(usable) and max(usable) >= 1.6,
            "no_phase_destroys_bias": all(g > 0.8 for g in usable) if usable else False,
        }
    report = ExperimentReport(
        experiment_id="T5",
        title="Per-phase quadratic amplification of c1/c2 (Section 2)",
        claim="log(ratio) roughly doubles each phase until saturation",
        headers=["phase", "c1/c2", "growth exponent"],
        rows=rows,
        checks=checks,
        params={"n": n, "k": k, "ratio0": ratio0, "phase_length": phase_length},
    )
    report.notes.append(
        "growth exponent = log(r_{p+1}) / log(r_p); the paper predicts values near 2 "
        "(c1'/cj' >= (1-o(1)) (c1/cj)^2) until c2 collapses"
    )
    report.elapsed_seconds = clock.elapsed
    return report


def experiment_t11_protocol_comparison(scale: ExperimentScale) -> ExperimentReport:
    """T11 — the protocol landscape the introduction motivates.

    Scenario A (k=2) uses a moderate ``n`` so the Theta(n)-round voter
    baseline can actually be run to consensus; scenarios B and C use a
    large ``n`` where the OneExtraBit crossover is visible.
    """
    with timed() as clock:
        n_small = scale.scaled(50_000)
        n_large = scale.scaled(2_000_000)
        gap_a = int(2 * math.sqrt(n_small * math.log(n_small)))
        scenarios = [
            ("A: k=2, strong gap", "two-colors", {"gap": gap_a}, 2, n_small),
            ("B: k=16, threshold gap", "theorem-1-1-gap", {"k": 16, "z": 1.0}, 16, n_large),
            ("C: k=128, threshold gap", "theorem-1-1-gap", {"k": 128, "z": 1.0}, 128, n_large),
        ]
        protocols = [
            ("voter", "voter", lambda n: 6 * n),
            ("two-choices", "two-choices", lambda n: 40_000),
            ("3-majority", "three-majority", lambda n: 40_000),
            ("undecided-state", "undecided-state", lambda n: 40_000),
            ("one-extra-bit", "one-extra-bit", lambda n: 40_000),
        ]
        # The whole landscape is one zipped campaign: every non-skipped
        # (scenario, protocol) cell becomes a point whose overrides pin
        # the protocol, workload, trial count, budget and the historical
        # per-cell seed (builtin hash() is salted per process, hence the
        # ord-sum).  Skipped voter cells never enter the grid.
        cells = []
        for scenario_name, initial, initial_params, k, n in scenarios:
            for proto_name, registry_name, cap in protocols:
                if proto_name == "voter" and k > 2:
                    continue
                cells.append(
                    {
                        "protocol": registry_name,
                        "n": n,
                        "initial": initial,
                        "initial_params": dict(initial_params),
                        "reps": max(2, scale.trials // 2) if proto_name == "voter" else min(3, scale.trials),
                        "max_steps": cap(n),
                        "seed": scale.seed + sum(ord(c) for c in scenario_name + proto_name),
                    }
                )
        sims = iter(
            _campaign_grid(
                _sync_base("two-choices", scenarios[0][4], "benchmark-split", {}, 1, max_rounds=1),
                cells,
                name="T11/landscape",
            )
        )
        rows = []
        outcome = {}
        for scenario_name, initial, initial_params, k, n in scenarios:
            for proto_name, registry_name, cap in protocols:
                if proto_name == "voter" and k > 2:
                    # Voter needs Theta(n) rounds regardless of k; the
                    # scenario-A probe documents that wall once.
                    rows.append([scenario_name, proto_name, None, None, "skipped (Theta(n))"])
                    continue
                mean, preserved, converged, total, _ = _stats(next(sims))
                outcome[(scenario_name[:1], proto_name)] = (mean, preserved)
                rows.append([scenario_name, proto_name, mean, preserved, f"{converged}/{total} converged"])

        # Asynchronous landscape probe: the same scenario-A workload in
        # the sequential tick model, as a singleton campaign; the
        # dispatcher routes it by n * trials (the counts crossover), and
        # the notes column names the engine that ran.
        scenario_name, initial, initial_params, _, n = scenarios[0]
        async_trials = min(3, scale.trials)
        async_sim = run_campaign(
            CampaignSpec(
                base=SimulationSpec(
                    protocol="two-choices",
                    n=n,
                    model="sequential",
                    initial=initial,
                    initial_params=initial_params,
                    reps=async_trials,
                ),
                sweep=SweepSpec(axes={"seed": [scale.seed + 11]}, mode="zip"),
                name="T11/async-probe",
            ),
            executor="serial",
        ).points[0].result
        async_results = async_sim.runs
        async_mean = float(np.mean([r.parallel_time for r in async_results if r.converged]))
        async_preserved = float(np.mean([r.converged and r.winner == 0 for r in async_results]))
        async_converged = sum(1 for r in async_results if r.converged)
        rows.append(
            [
                scenario_name,
                "two-choices (async ticks)",
                async_mean,
                async_preserved,
                f"{async_converged}/{async_trials} converged "
                f"[{async_results[0].metadata['engine']}]",
            ]
        )

        checks = {
            "two_choices_wins_scenario_A": outcome[("A", "two-choices")][1] >= 0.8,
            "voter_pays_theta_n": outcome[("A", "voter")][0] > 20 * outcome[("A", "two-choices")][0],
            "one_extra_bit_fastest_at_k128": outcome[("C", "one-extra-bit")][0]
            < outcome[("C", "two-choices")][0],
            "one_extra_bit_preserves_plurality": outcome[("B", "one-extra-bit")][1] >= 0.8,
            # The async probe dispatches by the counts crossover in
            # n * trials and agrees with the synchronous landscape.
            "async_fast_path_dispatched": async_results[0].metadata["engine"]
            in (
                ("counts-sequential",)
                if n * async_trials >= COUNTS_TICK_CROSSOVER
                else ("sequential",)
            ),
            "async_two_choices_wins_scenario_A": async_preserved >= 0.8,
        }
    report = ExperimentReport(
        experiment_id="T11",
        title="Protocol landscape: baselines vs the paper's protocols",
        claim="Two-Choices is best at k=2; the extra bit wins once k grows; voter pays Theta(n)",
        headers=["scenario", "protocol", "mean rounds", "plurality-preserved", "status"],
        rows=rows,
        checks=checks,
        params={"n_small": n_small, "n_large": n_large, "trials": scale.trials},
    )
    report.elapsed_seconds = clock.elapsed
    return report
