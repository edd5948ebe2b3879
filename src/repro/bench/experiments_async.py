"""Experiments T6–T10 and T12: the asynchronous-model claims.

These exercise the paper's main contribution — the phased asynchronous
protocol with the Sync Gadget — plus its endgame, its Pólya-urn
backbone, the sequential/continuous model equivalence, and the
Discussion-section response-delay extension.
"""

from __future__ import annotations

import math

import numpy as np

from ..analysis import statistics as stats
from ..analysis.convergence import spread_trace, synchrony_summary
from ..analysis.polya import PolyaUrn, limit_fraction_variance
from ..api import SimulationSpec
from ..engine.continuous import ContinuousEngine
from ..engine.counts_async import CountsSequentialEngine
from ..engine.ensemble import run_replicated
from ..engine.sequential import SequentialEngine
from ..graphs.complete import CompleteGraph
from ..protocols.async_plurality import AsyncPluralityProtocol
from ..protocols.two_choices import TwoChoicesSequential
from ..workloads.initial import multiplicative_bias, two_colors
from .harness import ExperimentReport, ExperimentScale, run_trials, spec_trials, timed

__all__ = [
    "experiment_t6_async_runtime",
    "experiment_t7_sync_gadget",
    "experiment_t8_bit_propagation_polya",
    "experiment_t9_endgame",
    "experiment_t10_model_equivalence",
    "experiment_t12_response_delays",
]


def bias_spec(n: int, k: int, ratio: float, **fields) -> SimulationSpec:
    """Async-plurality on ``K_n`` from a multiplicative bias: the
    Theorem 1.3 workload of T6, T7, T12 and the A-series."""
    return SimulationSpec(
        protocol="async-plurality", n=n, initial="multiplicative-bias",
        initial_params={"k": k, "ratio": ratio}, **fields,
    )


def core_spread_thirds(results, part_one: int):
    """``(early, late)`` mean core spread per run: the first and the last
    third of each run's part-one :func:`spread_trace`."""
    early, late = [], []
    for result in results:
        entries = spread_trace(result, part_one)
        third = max(1, len(entries) // 3)
        early.append(np.mean([e["spread_core"] for e in entries[:third]]))
        late.append(np.mean([e["spread_core"] for e in entries[-third:]]))
    return early, late


def experiment_t6_async_runtime(scale: ExperimentScale) -> ExperimentReport:
    """T6 — Theorem 1.3: the asynchronous protocol converges in
    Theta(log n) parallel time and the plurality wins w.h.p."""
    with timed() as clock:
        ns = [scale.scaled(base, minimum=256) for base in (1_024, 2_048, 4_096, 8_192)]
        k = 8
        ratio = 1.5
        trials = max(2, scale.trials // 2)
        rows = []
        times = []
        win_rates = []
        for n in ns:
            results = spec_trials(bias_spec(n, k, ratio), trials, scale.seed + n)
            mean_pt = float(np.mean([r.parallel_time for r in results]))
            wins = float(np.mean([r.converged and r.winner == 0 for r in results]))
            times.append(mean_pt)
            win_rates.append(wins)
            rows.append([n, k, ratio, mean_pt, mean_pt / math.log(n), wins])
        slope, _ = stats.fit_power_law(ns, times)
        per_log = [t / math.log(n) for t, n in zip(times, ns)]
        checks = {
            # Theta(log n): sublinear power-law in n ...
            "strongly_sublinear_in_n": slope <= 0.45,
            # ... and parallel_time / log n confined to a constant band.
            "log_n_band": max(per_log) / min(per_log) <= 2.5,
            "plurality_wins_whp": min(win_rates) >= 0.75,
        }
    report = ExperimentReport(
        experiment_id="T6",
        title="Asynchronous protocol runtime: Theta(log n) (Theorem 1.3)",
        claim="parallel time to consensus grows like log n; the plurality wins w.h.p.",
        headers=["n", "k", "bias ratio", "parallel time", "pt / log n", "win-rate"],
        rows=rows,
        checks=checks,
        params={"ns": ns, "k": k, "ratio": ratio, "trials": trials},
    )
    report.notes.append(f"power-law exponent of parallel time vs n: {slope:.3f} (log-shape predicts ~0.1)")
    report.notes.append(
        "constants are large at laptop n (the schedule is Theta(log n) with factor "
        "phases*(6+sync_blocks)*delta_factor); the check is the growth shape, not the constant"
    )
    report.elapsed_seconds = clock.elapsed
    return report


def experiment_t7_sync_gadget(scale: ExperimentScale) -> ExperimentReport:
    """T7 — weak synchronicity: the Sync Gadget caps working-time spread."""
    with timed() as clock:
        n = scale.scaled(4_000, minimum=512)
        k = 8
        trials = max(2, scale.trials // 2)
        rows = []
        late_core = {}
        growths = {}
        for sync in (True, False):
            # Run to absorption (a stop that never fires), tracing the
            # working-time spread every 10 units of parallel time.
            spec = bias_spec(n, k, 1.5, protocol_params={"sync_enabled": sync}, stop="never",
                             record_trace=True, trace_every=10.0)
            results = spec_trials(spec, trials, scale.seed + int(sync))
            part_one = AsyncPluralityProtocol(sync_enabled=sync).params.compile(n).part_one_length
            early, late = core_spread_thirds(results, part_one)
            poor = [max(e["poor_fraction_4x"] for e in spread_trace(r, part_one)) for r in results]
            early_mean = float(np.mean(early))
            late_mean = float(np.mean(late))
            growth = late_mean / max(early_mean, 1e-9)
            late_core[sync] = late_mean
            growths[sync] = growth
            summary = synchrony_summary(results[0], until_parallel_time=part_one)
            rows.append(
                [
                    "with gadget" if sync else "no gadget",
                    early_mean,
                    late_mean,
                    growth,
                    float(np.mean(poor)),
                    summary["max_spread"],
                ]
            )
        checks = {
            "gadget_caps_spread": late_core[True] < 0.75 * late_core[False],
            "unsynced_spread_keeps_growing": growths[False] > growths[True] * 1.15,
        }
    report = ExperimentReport(
        experiment_id="T7",
        title="Sync Gadget: working-time spread with and without (Section 3.1)",
        claim="with the gadget the spread plateaus each phase; without it it grows like sqrt(t)",
        headers=["variant", "early core spread", "late core spread", "growth", "max poor(4*Delta)", "max spread"],
        rows=rows,
        checks=checks,
        params={"n": n, "k": k, "trials": trials},
    )
    report.notes.append(
        "at laptop n the within-phase Poisson noise already exceeds the asymptotic Delta, so "
        "poor-fractions use 4*Delta; the asymptotic statement is about the *growth* contrast"
    )
    report.elapsed_seconds = clock.elapsed
    return report


def experiment_t8_bit_propagation_polya(scale: ExperimentScale) -> ExperimentReport:
    """T8 — Bit-Propagation is a Pólya urn: colour fractions among
    bit-set nodes are (almost) preserved while the urn grows."""
    with timed() as clock:
        n = scale.scaled(40_000)
        k = 8
        ratio = 1.5
        config = multiplicative_bias(n, k, ratio)
        # Post-Two-Choices bit-set population: ~ c_j^2 / n per colour.
        initial = np.maximum((np.array(config.counts, dtype=float) ** 2 / n).astype(np.int64), 1)
        urn_total = int(initial.sum())
        draws = n - urn_total  # grow the urn to system size, like Bit-Propagation does
        trials = max(10, scale.trials * 2)
        start_fraction = float(initial[0] / urn_total)

        def one_trial(seed):
            urn = PolyaUrn(initial.tolist())
            urn.run(draws, seed=seed)
            return float(urn.fractions()[0])

        finals = run_trials(one_trial, trials, scale.seed)
        mean_final = float(np.mean(finals))
        std_final = float(np.std(finals, ddof=1))
        limit_std = math.sqrt(limit_fraction_variance(initial.tolist(), 0))
        sem = std_final / math.sqrt(trials)
        rows = [
            [
                k,
                urn_total,
                draws,
                start_fraction,
                mean_final,
                std_final,
                limit_std,
            ]
        ]
        checks = {
            # Martingale: the mean fraction does not move (3 SEM band).
            "fraction_is_preserved_in_mean": abs(mean_final - start_fraction) <= 3 * sem + 1e-6,
            # Fluctuations bounded by the limiting Beta law.
            "fluctuations_bounded_by_beta_limit": std_final <= 1.8 * limit_std,
        }
    report = ExperimentReport(
        experiment_id="T8",
        title="Bit-Propagation as a Pólya urn (Section 3.1)",
        claim="the colour mix of bit-set nodes is a martingale while the urn grows to ~n",
        headers=["k", "urn start", "draws", "start frac C1", "mean final frac", "std", "beta-limit std"],
        rows=rows,
        checks=checks,
        params={"n": n, "k": k, "trials": trials},
    )
    report.elapsed_seconds = clock.elapsed
    return report


def experiment_t9_endgame(scale: ExperimentScale) -> ExperimentReport:
    """T9 — Section 3.2: from c1 >= (1-eps) n, asynchronous Two-Choices
    finishes everyone before the first node terminates, w.h.p."""
    with timed() as clock:
        ns = [scale.scaled(base, minimum=256) for base in (2_000, 8_000)]
        k = 8
        epsilon = 0.1
        trials = scale.trials
        rows = []
        orderings = []
        for n in ns:
            # The endgame alone: async-plurality with an empty part one.
            spec = SimulationSpec(
                protocol="async-plurality", n=n, protocol_params={"phases": 0, "endgame_factor": 10.0},
                initial="near-consensus", initial_params={"k": k, "epsilon": epsilon}, record_trace=True,
            )
            results = spec_trials(spec, trials, scale.seed + n)
            # The run stops at consensus (checked once per time unit) or
            # when every node has terminated; the order holds when it
            # converged with no node terminated yet.
            order_ok = [r.converged and r.trace.points[-1].fields["terminated"] == 0 for r in results]
            wins = [r.converged and r.winner == 0 for r in results]
            consensus_times = [r.parallel_time for r in results if r.converged]
            mean_ct = float(np.mean(consensus_times)) if consensus_times else float("nan")
            estimate = stats.estimate_success(order_ok)
            orderings.append(estimate.rate)
            rows.append([n, epsilon, mean_ct, mean_ct / math.log(n), estimate.rate, float(np.mean(wins))])
        checks = {
            "consensus_precedes_first_termination_whp": min(orderings) >= 0.8,
            "endgame_time_logarithmic": all(
                r[3] <= 8.0 for r in rows if not math.isnan(r[3])
            ),
        }
    report = ExperimentReport(
        experiment_id="T9",
        title="Endgame: consensus before the first termination (Section 3.2)",
        claim="plain async Two-Choices from c1=(1-eps)n reaches consensus before any node stops",
        headers=["n", "eps", "consensus pt", "pt / log n", "P(order holds)", "win-rate"],
        rows=rows,
        checks=checks,
        params={"ns": ns, "k": k, "epsilon": epsilon, "trials": trials},
    )
    report.elapsed_seconds = clock.elapsed
    return report


def experiment_t10_model_equivalence(scale: ExperimentScale) -> ExperimentReport:
    """T10 — the sequential model and the continuous Poisson-clock model
    give the same run time (the equivalence the paper cites [4] for),
    and the batched counts fast path draws from the same law as both."""
    with timed() as clock:
        n = scale.scaled(2_000, minimum=256)
        gap = int(0.2 * n)
        config = two_colors(n, gap)
        topology = CompleteGraph(n)
        # 40-trial floor: the CI-overlap check needs tighter intervals
        # than 24 trials give (the engines are fast enough now).
        trials = max(40, scale.trials * 2)
        protocol = TwoChoicesSequential()
        sequential = SequentialEngine(protocol, topology)
        continuous = ContinuousEngine(protocol, topology)
        seq_results = run_trials(lambda s: sequential.run(config, seed=s), trials, scale.seed)
        cont_results = run_trials(lambda s: continuous.run(config, seed=s), trials, scale.seed + 1)
        # All three legs are hand-wired: simulate() would route them by
        # n * trials, which is below COUNTS_TICK_CROSSOVER at quick
        # scale (agent engines only) but reaches it at full scale
        # (2000 * 50 = 1e5: counts engines only), so no spec keeps the
        # three engines side by side at both scales.  T10 moves to
        # simulate() once each model is checked against an exact law.
        fast_engine = CountsSequentialEngine(protocol.as_sequential_counts())
        fast_results = run_replicated(fast_engine, config, trials, seed=scale.seed + 2)
        seq_times = [r.parallel_time for r in seq_results if r.converged]
        cont_times = [r.parallel_time for r in cont_results if r.converged]
        fast_times = [r.parallel_time for r in fast_results if r.converged]
        seq_mean, seq_low, seq_high = stats.bootstrap_mean_ci(seq_times)
        cont_mean, cont_low, cont_high = stats.bootstrap_mean_ci(cont_times)
        fast_mean, fast_low, fast_high = stats.bootstrap_mean_ci(fast_times)
        # Permutation p-values: the sequential samples live on the
        # ticks/n grid while the continuous ones do not, and scipy's
        # asymptotic KS p-value over-rejects on such tied-vs-continuous
        # comparisons (~9% at 40/40); the permutation null is exact
        # under exchangeability, ties and all.
        ks_statistic, ks_pvalue = stats.ks_permutation_test(seq_times, cont_times)
        fast_ks_statistic, fast_ks_pvalue = stats.ks_permutation_test(seq_times, fast_times)
        rows = [
            ["sequential (ticks/n)", len(seq_times), seq_mean, seq_low, seq_high],
            ["continuous (Poisson)", len(cont_times), cont_mean, cont_low, cont_high],
            ["counts fast path (batched)", len(fast_times), fast_mean, fast_low, fast_high],
        ]
        overlap = not (seq_high < cont_low or cont_high < seq_low)
        fast_overlap = not (seq_high < fast_low or fast_high < seq_low)
        checks = {
            "confidence_intervals_overlap": overlap,
            "means_within_25_percent": abs(seq_mean - cont_mean) <= 0.25 * max(seq_mean, cont_mean),
            "both_always_converge": len(seq_times) == trials and len(cont_times) == trials,
            # Whole-distribution agreement, not just the means.
            "ks_test_not_rejected": ks_pvalue >= 0.01,
            # The K_n counts fast path is a drop-in: same law.
            "fast_path_is_counts_engine": all(
                r.metadata["engine"] == "counts-sequential" for r in fast_results
            ),
            "fast_path_always_converges": len(fast_times) == trials,
            "fast_path_cis_overlap": fast_overlap,
            "fast_path_ks_not_rejected": fast_ks_pvalue >= 0.01,
        }
    report = ExperimentReport(
        experiment_id="T10",
        title="Sequential vs continuous-time model equivalence (Section 1)",
        claim="run-time distributions agree between the two asynchronous formulations "
        "(and the batched counts fast path matches both)",
        headers=["model", "runs", "mean parallel time", "ci-low", "ci-high"],
        rows=rows,
        checks=checks,
        params={"n": n, "gap": gap, "trials": trials},
    )
    report.notes.append(
        f"two-sample KS (permutation): statistic {ks_statistic:.3f}, p-value {ks_pvalue:.3f} "
        "(equivalence predicts no rejection)"
    )
    report.notes.append(
        f"fast path (ensemble) vs sequential KS (permutation): "
        f"statistic {fast_ks_statistic:.3f}, p-value {fast_ks_pvalue:.3f}"
    )
    report.elapsed_seconds = clock.elapsed
    return report


def experiment_t12_response_delays(scale: ExperimentScale) -> ExperimentReport:
    """T12 — Discussion-section extension: the protocol tolerates
    exponential response delays with constant parameter."""
    with timed() as clock:
        n = scale.scaled(600, minimum=128)
        k = 4
        trials = max(2, scale.trials // 2)
        max_time = 4.0 * AsyncPluralityProtocol().params.compile(n).total_length
        variants = [
            ("no delay", None, {}),
            ("exp(rate=1.0)", "exponential", {"rate": 1.0}),
            ("exp(rate=0.5)", "exponential", {"rate": 0.5}),
        ]
        rows = []
        win_rates = {}
        mean_times = {}
        for label, delay, delay_params in variants:
            spec = bias_spec(n, k, 1.8, model="continuous", delay=delay, delay_params=delay_params,
                             max_time=max_time)
            results = spec_trials(spec, trials, scale.seed + sum(ord(c) for c in label))
            wins = [r.converged and r.winner == 0 for r in results]
            times = [r.parallel_time for r in results if r.converged]
            win_rates[label] = float(np.mean(wins))
            mean_times[label] = float(np.mean(times)) if times else float("nan")
            rows.append([label, win_rates[label], mean_times[label], trials])
        checks = {
            "baseline_succeeds": win_rates["no delay"] >= 0.5,
            "tolerates_unit_rate_delays": win_rates["exp(rate=1.0)"] >= 0.5,
            "slowdown_bounded": (
                math.isnan(mean_times["exp(rate=1.0)"])
                or mean_times["exp(rate=1.0)"] <= 3.0 * mean_times["no delay"]
            ),
        }
    report = ExperimentReport(
        experiment_id="T12",
        title="Response-delay robustness (Discussion extension)",
        claim="consensus survives exponential response delays with constant parameter",
        headers=["delay model", "win-rate", "mean parallel time", "trials"],
        rows=rows,
        checks=checks,
        params={"n": n, "k": k, "trials": trials},
    )
    report.notes.append(
        "nodes busy-wait while a request is in flight (their clock ticks perform no action); "
        "the modelling choice is documented in repro.engine.continuous"
    )
    report.elapsed_seconds = clock.elapsed
    return report
