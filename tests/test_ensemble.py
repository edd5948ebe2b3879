"""The ensemble entry point of the counts engines.

Evidence layers for the ensemble exactness contract (see
``repro/engine/ensemble.py``):

1. *Value-for-value at R = 1*: on each of the three counts engines, a
   one-replication ``run_ensemble`` reproduces ``run`` exactly from a
   shared seed — every field of the result, apart from the
   ``n_reps``/``replication`` tags — for every counts protocol.
2. *Marginal law at R = 64*: KS agreement between ensemble samples and
   looped single-engine samples of the convergence-time distribution.
3. *Masking/compaction edge cases*: shrinking active sets, everyone
   converging at once, budgets running out mid-ensemble.
4. *Grid invariants*: sequential parallel time on the exact ``ticks/n``
   float grid, stop checks on the ``check_every = n`` tick grid.

Plus the ``n_reps`` routing of ``fastest_engine``, the
``run_replicated`` front door, and the ``SeedSequence.spawn`` seeding
contract of ``run_trials``.
"""

import numpy as np
import pytest

from repro.analysis.statistics import ks_permutation_test, ks_two_sample
from repro.bench.harness import run_trials
from repro.core.colors import ColorConfiguration
from repro.core.exceptions import ConfigurationError
from repro.core.rng import spawn_seed_sequences
from repro.engine import (
    ContinuousEngine,
    CountsContinuousEngine,
    CountsEngine,
    CountsSequentialEngine,
    SequentialEngine,
    SynchronousEngine,
    fastest_engine,
    run_replicated,
)
from repro.engine.dispatch import COUNTS_TICK_CROSSOVER
from repro.graphs.complete import CompleteGraph
from repro.graphs.families import hypercube
from repro.protocols import (
    OneExtraBitCounts,
    ThreeMajorityCounts,
    ThreeMajoritySequentialCounts,
    TwoChoicesCounts,
    TwoChoicesSequential,
    TwoChoicesSequentialCounts,
    TwoChoicesSynchronous,
    UndecidedStateCounts,
    UndecidedStateSequentialCounts,
    VoterCounts,
    VoterSequentialCounts,
)
from repro.workloads.sweeps import convergence_time_sweep

SYNC_PROTOCOLS = [
    TwoChoicesCounts(),
    VoterCounts(),
    ThreeMajorityCounts(),
    UndecidedStateCounts(),
    OneExtraBitCounts(),
]
TICK_PROTOCOLS = [
    TwoChoicesSequentialCounts(),
    VoterSequentialCounts(),
    ThreeMajoritySequentialCounts(),
    UndecidedStateSequentialCounts(),
]

CONFIG = ColorConfiguration([70, 40, 20])


def _assert_same_values(single, ensembled):
    """*ensembled* equals *single* in every field but the ensemble tags."""
    tagged = ensembled.to_dict()
    assert tagged["metadata"].pop("n_reps") == 1
    assert tagged["metadata"].pop("replication") == 0
    assert tagged == single.to_dict()


class TestExactnessAtR1:
    """Layer 1: on each counts engine, ``run_ensemble`` at R = 1 replays
    ``run`` value-for-value."""

    @pytest.mark.parametrize("protocol", SYNC_PROTOCOLS, ids=lambda p: p.name)
    def test_sync_rounds(self, protocol):
        engine = CountsEngine(protocol)
        for seed in (0, 11, 202):
            single = engine.run(CONFIG, seed=seed, max_rounds=5000)
            [ensembled] = engine.run_ensemble(CONFIG, 1, max_rounds=5000, seed=seed)
            _assert_same_values(single, ensembled)

    @pytest.mark.parametrize("protocol", TICK_PROTOCOLS, ids=lambda p: p.name)
    def test_sequential_ticks(self, protocol):
        engine = CountsSequentialEngine(protocol)
        for seed in (0, 11, 202):
            _assert_same_values(engine.run(CONFIG, seed=seed), *engine.run_ensemble(CONFIG, 1, seed=seed))

    @pytest.mark.parametrize("protocol", TICK_PROTOCOLS, ids=lambda p: p.name)
    def test_continuous_ticks(self, protocol):
        engine = CountsContinuousEngine(protocol)
        for seed in (0, 11, 202):
            _assert_same_values(engine.run(CONFIG, seed=seed), *engine.run_ensemble(CONFIG, 1, seed=seed))

    def test_r1_with_nondefault_batch_and_check_every(self):
        engine = CountsSequentialEngine(TwoChoicesSequentialCounts(), batch_ticks=17)
        single = engine.run(CONFIG, seed=5, check_every=50)
        [ensembled] = engine.run_ensemble(CONFIG, 1, seed=5, check_every=50)
        _assert_same_values(single, ensembled)


class TestMarginalLawAtR64:
    """Layer 2: every replication's law matches the single-run engine."""

    N = 400
    REPS = 64

    @pytest.mark.parametrize("protocol", TICK_PROTOCOLS, ids=lambda p: p.name)
    def test_sequential_convergence_time_ks(self, protocol):
        # Voter needs Theta(n) parallel time with a heavy tail, so it
        # gets a smaller, strongly biased instance; its stragglers may
        # still hit the default tick budget, which truncates *both*
        # paths at the same grid point — the truncated samples remain
        # law-identical, so the KS comparison uses all of them.
        voter = "voter" in protocol.name
        n = 120 if voter else self.N
        config = ColorConfiguration([100, 20] if voter else [int(0.6 * n), n - int(0.6 * n)])
        single = CountsSequentialEngine(protocol)
        looped = [single.run(config, seed=1000 + s) for s in range(self.REPS)]
        ensembled = CountsSequentialEngine(protocol).run_ensemble(
            config, self.REPS, seed=77
        )
        if not voter:
            assert all(r.converged for r in looped)
            assert all(r.converged for r in ensembled)
        statistic, pvalue = ks_two_sample(
            [r.parallel_time for r in looped], [r.parallel_time for r in ensembled]
        )
        assert pvalue >= 0.01, f"{protocol.name}: KS rejected, D={statistic:.3f}, p={pvalue:.4f}"

    def test_continuous_convergence_time_ks(self):
        protocol = TwoChoicesSequentialCounts()
        config = ColorConfiguration([240, 160])
        single = CountsContinuousEngine(protocol)
        looped = [single.run(config, seed=1000 + s) for s in range(self.REPS)]
        ensembled = CountsContinuousEngine(protocol).run_ensemble(
            config, self.REPS, seed=77
        )
        statistic, pvalue = ks_two_sample(
            [r.parallel_time for r in looped if r.converged],
            [r.parallel_time for r in ensembled if r.converged],
        )
        assert pvalue >= 0.01, f"KS rejected: D={statistic:.3f}, p={pvalue:.4f}"

    @pytest.mark.parametrize(
        "protocol", [TwoChoicesCounts(), OneExtraBitCounts()], ids=lambda p: p.name
    )
    def test_sync_rounds_distribution_ks(self, protocol):
        config = ColorConfiguration([240, 160])
        single = CountsEngine(protocol)
        looped = [single.run(config, seed=1000 + s) for s in range(self.REPS)]
        ensembled = CountsEngine(protocol).run_ensemble(config, self.REPS, seed=77)
        statistic, pvalue = ks_two_sample(
            [r.rounds for r in looped], [r.rounds for r in ensembled]
        )
        assert pvalue >= 0.01, f"KS rejected: D={statistic:.3f}, p={pvalue:.4f}"


class TestMaskingAndCompaction:
    """Layer 3: shrinking active sets and budget edge cases."""

    def test_results_are_in_replication_order(self):
        results = CountsSequentialEngine(TwoChoicesSequentialCounts()).run_ensemble(
            ColorConfiguration([700, 300]), 16, seed=3
        )
        assert [r.metadata["replication"] for r in results] == list(range(16))
        assert all(r.metadata["n_reps"] == 16 for r in results)

    def test_population_conserved_across_all_reps(self):
        results = CountsSequentialEngine(UndecidedStateSequentialCounts()).run_ensemble(
            ColorConfiguration([60, 40, 30]), 12, seed=9
        )
        assert all(sum(r.final.counts) == 130 for r in results)

    def test_all_converged_at_once_from_consensus_start(self):
        consensus = ColorConfiguration([500, 0])
        for engine in (
            CountsEngine(TwoChoicesCounts()),
            CountsSequentialEngine(TwoChoicesSequentialCounts()),
        ):
            results = engine.run_ensemble(consensus, 8, seed=1)
            assert all(r.converged and r.rounds == 0 and r.parallel_time == 0.0 for r in results)

    def test_max_ticks_hit_mid_ensemble(self):
        # A tiny tick budget: no replication can converge, every result
        # must report the full budget and converged=False.
        n = 500
        results = CountsSequentialEngine(TwoChoicesSequentialCounts()).run_ensemble(
            ColorConfiguration([300, 200]), 6, max_ticks=2 * n, seed=4
        )
        assert all(not r.converged and r.rounds == 2 * n for r in results)
        # A generous budget converges some seeds earlier than others —
        # the active set genuinely shrinks (distinct retirement ticks).
        results = CountsSequentialEngine(TwoChoicesSequentialCounts()).run_ensemble(
            ColorConfiguration([300, 200]), 24, seed=4
        )
        assert all(r.converged for r in results)
        assert len({r.rounds for r in results}) > 1

    def test_max_rounds_hit_mid_ensemble_sync(self):
        results = CountsEngine(VoterCounts()).run_ensemble(
            ColorConfiguration([60, 40]), 8, max_rounds=3, seed=2
        )
        assert all(not r.converged and r.rounds == 3 for r in results)

    def test_max_time_budget_continuous(self):
        results = CountsContinuousEngine(TwoChoicesSequentialCounts()).run_ensemble(
            ColorConfiguration([300, 200]), 8, max_time=0.5, seed=6
        )
        assert all(not r.converged for r in results)
        assert all(r.parallel_time <= 0.5 + 1.0 for r in results)  # one batch overshoot max

    def test_absorbed_nonconsensus_retires_unconverged(self):
        # All-undecided is absorbing for USD but is not consensus.
        protocol = UndecidedStateCounts()
        states = np.array([[0, 0, 10]])
        assert bool(protocol.is_absorbed_ensemble(states)[0])

    def test_invalid_arguments(self):
        engine = CountsSequentialEngine(TwoChoicesSequentialCounts())
        with pytest.raises(ConfigurationError):
            engine.run_ensemble(CONFIG, 0)
        with pytest.raises(ConfigurationError):
            engine.run_ensemble(np.array([5, 5]), 2)
        with pytest.raises(ConfigurationError):
            CountsSequentialEngine(TwoChoicesSequentialCounts(), batch_ticks=0)
        with pytest.raises(ConfigurationError):
            CountsEngine(TwoChoicesSequential())


class TestGridInvariants:
    """Layer 4: the tick/check grids survive the ensemble lift."""

    def test_sequential_times_on_ticks_over_n_grid(self):
        n = 600
        results = CountsSequentialEngine(TwoChoicesSequentialCounts()).run_ensemble(
            ColorConfiguration([360, 240]), 16, seed=8
        )
        for r in results:
            assert r.parallel_time == r.rounds / n  # exact float grid

    def test_converged_reps_stop_on_check_grid(self):
        n = 600
        results = CountsSequentialEngine(TwoChoicesSequentialCounts()).run_ensemble(
            ColorConfiguration([360, 240]), 16, seed=8
        )
        assert all(r.converged and r.rounds % n == 0 for r in results)

    def test_custom_check_every_grid(self):
        results = CountsSequentialEngine(TwoChoicesSequentialCounts()).run_ensemble(
            ColorConfiguration([360, 240]), 8, seed=8, check_every=97
        )
        assert all(r.converged and r.rounds % 97 == 0 for r in results)


class TestDispatchAndRouting:
    def test_n_reps_routes_to_ensemble_engines(self):
        # Tick protocols take the counts engines from the counts
        # crossover in n * n_reps; below it they stay on the looped
        # agent engines.
        graph = CompleteGraph(-(-COUNTS_TICK_CROSSOVER // 10))
        small = CompleteGraph(100)
        assert isinstance(
            fastest_engine(TwoChoicesSequential(), small, model="sequential", n_reps=10),
            SequentialEngine,
        )
        assert isinstance(
            fastest_engine(TwoChoicesSequential(), small, model="continuous", n_reps=10),
            ContinuousEngine,
        )
        assert isinstance(
            fastest_engine(TwoChoicesSequential(), graph, model="sequential", n_reps=10),
            CountsSequentialEngine,
        )
        assert isinstance(
            fastest_engine(TwoChoicesSequential(), graph, model="continuous", n_reps=10),
            CountsContinuousEngine,
        )
        for protocol in SYNC_PROTOCOLS:
            assert isinstance(
                fastest_engine(protocol, small, model="synchronous", n_reps=10),
                CountsEngine,
            )
        assert isinstance(
            fastest_engine(TwoChoicesSequentialCounts(), small, model="sequential", n_reps=10),
            CountsSequentialEngine,
        )

    def test_n_reps_one_keeps_single_run_engines(self):
        graph = CompleteGraph(COUNTS_TICK_CROSSOVER)
        assert isinstance(
            fastest_engine(TwoChoicesSequential(), graph, model="sequential", n_reps=1),
            CountsSequentialEngine,
        )
        assert isinstance(
            fastest_engine(TwoChoicesCounts(), graph, model="synchronous", n_reps=1),
            CountsEngine,
        )

    def test_ineligible_protocols_fall_back_to_single_engines(self):
        # Sparse topologies have no counts path (SequentialEngine and
        # SynchronousEngine are single-run engines run_replicated loops
        # over).
        assert isinstance(
            fastest_engine(TwoChoicesSequential(), hypercube(15), model="sequential", n_reps=10),
            SequentialEngine,
        )
        assert isinstance(
            fastest_engine(TwoChoicesSynchronous(), hypercube(5), model="synchronous", n_reps=10),
            SynchronousEngine,
        )

    def test_invalid_n_reps(self):
        with pytest.raises(ConfigurationError):
            fastest_engine(TwoChoicesSequential(), CompleteGraph(100), n_reps=0)

    def test_run_replicated_uses_ensemble_when_available(self):
        config = ColorConfiguration([700, 300])
        engine = CountsSequentialEngine(TwoChoicesSequentialCounts())
        results = run_replicated(engine, config, 5, seed=1)
        assert len(results) == 5
        assert all(r.metadata["engine"] == "counts-sequential" for r in results)
        assert all(r.metadata["n_reps"] == 5 for r in results)

    def test_run_replicated_loops_plain_engines(self):
        config = ColorConfiguration([20, 12])
        engine = SequentialEngine(TwoChoicesSequential(), CompleteGraph(32))
        results = run_replicated(engine, config, 3, seed=1)
        assert len(results) == 3 and all(r.converged for r in results)
        # Reproducible from the master seed.
        again = run_replicated(engine, config, 3, seed=1)
        assert [r.rounds for r in results] == [r.rounds for r in again]


class TestSeedingContract:
    def test_run_trials_is_reproducible_and_independent(self):
        a = run_trials(lambda s: np.random.default_rng(s).integers(1 << 30), 4, seed=1)
        b = run_trials(lambda s: np.random.default_rng(s).integers(1 << 30), 4, seed=1)
        assert a == b
        assert len(set(int(x) for x in a)) == 4  # distinct child streams

    def test_spawn_seed_sequences_pure_and_distinct(self):
        first = spawn_seed_sequences(7, 5)
        second = spawn_seed_sequences(7, 5)
        assert [s.spawn_key for s in first] == [s.spawn_key for s in second]
        assert len({s.spawn_key for s in first}) == 5
        # Rebuilding from a SeedSequence master is pure too.
        root = np.random.SeedSequence(7)
        root.spawn(3)  # advance the child counter
        assert [s.spawn_key for s in spawn_seed_sequences(root, 5)] == [
            s.spawn_key for s in first
        ]

    def test_spawn_seed_sequences_validates(self):
        with pytest.raises(ValueError):
            spawn_seed_sequences(7, -1)

    def test_spawned_siblings_keep_independent_ensemble_streams(self):
        # Spawned SeedSequence children differ only in spawn_key;
        # split() must preserve it, or every grid point of a sweep
        # would consume one identical ensemble stream.
        from repro.core.rng import split

        children = spawn_seed_sequences(5, 2)
        draws = [
            split(child, "ensemble").integers(0, 1 << 30, size=4).tolist()
            for child in children
        ]
        assert draws[0] != draws[1]
        config = ColorConfiguration([180, 120])
        engine = fastest_engine(TwoChoicesSequential(), CompleteGraph(300), n_reps=8)
        first = run_replicated(engine, config, 8, seed=children[0])
        second = run_replicated(engine, config, 8, seed=children[1])
        assert [r.rounds for r in first] != [r.rounds for r in second]

    def test_looped_and_ensemble_streams_differ(self):
        # Same master seed, different (independent) streams: the two
        # routing paths must not replay each other's draws.
        config = ColorConfiguration([120, 80])
        engine = CountsSequentialEngine(TwoChoicesSequentialCounts())
        looped = [engine.run(config, seed=child) for child in spawn_seed_sequences(42, 8)]
        ensembled = run_replicated(engine, config, 8, seed=42)
        assert [r.rounds for r in looped] != [r.rounds for r in ensembled]


class TestSweepHelper:
    def test_convergence_time_sweep_routes_ensembles(self):
        # One grid point on each side of the counts crossover in n * reps.
        big = -(-COUNTS_TICK_CROSSOVER // 6)
        out = convergence_time_sweep(TwoChoicesSequential(), [300, big], reps=6, seed=5)
        assert sorted(out) == [300, big]
        expected = {300: "sequential", big: "counts-sequential"}
        for n, results in out.items():
            assert len(results) == 6
            assert all(r.converged for r in results)
            assert all(r.metadata["engine"] == expected[n] for r in results)
            assert all(r.parallel_time == r.rounds / n for r in results)

    def test_convergence_time_sweep_reproducible(self):
        a = convergence_time_sweep(TwoChoicesSequential(), [300], reps=4, seed=5)
        b = convergence_time_sweep(TwoChoicesSequential(), [300], reps=4, seed=5)
        assert [r.rounds for r in a[300]] == [r.rounds for r in b[300]]


class TestPermutationKS:
    def test_same_distribution_not_rejected(self):
        rng = np.random.default_rng(0)
        first = rng.exponential(size=60)
        second = rng.exponential(size=60)
        statistic, pvalue = ks_permutation_test(first, second, resamples=500, seed=1)
        assert pvalue >= 0.05

    def test_different_distributions_rejected(self):
        rng = np.random.default_rng(0)
        first = rng.normal(0.0, 1.0, size=80)
        second = rng.normal(2.0, 1.0, size=80)
        statistic, pvalue = ks_permutation_test(first, second, resamples=500, seed=1)
        assert statistic > 0.5 and pvalue < 0.01

    def test_handles_tied_grid_samples(self):
        # Grid-vs-continuous at 40/40 — the exact T10 shape.  The
        # permutation p-value must not blow up on the ties.
        rng = np.random.default_rng(3)
        grid = np.round(rng.exponential(size=40) * 10) / 10
        continuous = rng.exponential(size=40)
        statistic, pvalue = ks_permutation_test(grid, continuous, resamples=500, seed=1)
        assert 0.0 < pvalue <= 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        first, second = rng.normal(size=30), rng.normal(size=30)
        assert ks_permutation_test(first, second, seed=9) == ks_permutation_test(
            first, second, seed=9
        )

    def test_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            ks_permutation_test([1.0], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            ks_permutation_test([1.0, 2.0], [1.0, 2.0], resamples=0)
