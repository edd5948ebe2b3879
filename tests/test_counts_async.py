"""The counts-level asynchronous fast path.

Three layers of evidence that the batched tick engines draw from the
sequential model's law:

1. *Tick law*: every protocol's ``tick_transition_matrices`` (one row)
   matches the empirical one-tick behaviour of its agent-level
   ``seq_tick``.
2. *Chain exactness*: the batched histogram chain agrees with the
   per-tick chain for small ``n`` and ``B`` (exactly at ``B = 1``).
3. *Run distributions*: KS agreement of convergence-time samples
   between ``CountsSequentialEngine`` / ``CountsContinuousEngine`` and
   the agent-level ``SequentialEngine`` / ``ContinuousEngine``.

Plus the routing table of :func:`repro.engine.dispatch.fastest_engine`
and the law-preservation of the vectorised ``seq_tick_batch`` hooks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.colors import ColorConfiguration
from repro.core.exceptions import ConfigurationError
from repro.engine import (
    ContinuousEngine,
    CountsContinuousEngine,
    CountsEngine,
    CountsSequentialEngine,
    SequentialEngine,
    SynchronousEngine,
    fastest_engine,
)
from repro.engine.delays import FixedDelay
from repro.engine.dispatch import COUNTS_TICK_CROSSOVER
from repro.graphs.complete import CompleteGraph
from repro.graphs.families import hypercube
from repro.analysis.statistics import ks_two_sample
from repro.protocols import (
    AsyncPluralityProtocol,
    ThreeMajoritySequential,
    ThreeMajoritySequentialCounts,
    TwoChoicesCounts,
    TwoChoicesSequential,
    TwoChoicesSequentialCounts,
    UndecidedStateSequential,
    UndecidedStateSequentialCounts,
    VoterSequential,
    VoterSequentialCounts,
)
from repro.protocols.base import SequentialProtocol
from repro.workloads.initial import two_colors

PAIRS = [
    (TwoChoicesSequential(), TwoChoicesSequentialCounts()),
    (VoterSequential(), VoterSequentialCounts()),
    (ThreeMajoritySequential(), ThreeMajoritySequentialCounts()),
    (UndecidedStateSequential(), UndecidedStateSequentialCounts()),
]


def _label_histogram(protocol, counts):
    """Per-node labels realising *counts* (deterministic block layout)."""
    return np.repeat(np.arange(len(counts)), counts)


def _tick_matrix(counts_protocol, counts):
    """The transition matrix of one histogram: the stacked hook's only slice."""
    [matrix] = counts_protocol.tick_transition_matrices(np.asarray(counts)[None, :])
    return matrix


class TestTickTransitionMatrix:
    """Layer 1: the matrix is the exact conditional law of one tick."""

    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p[1].name)
    def test_rows_are_stochastic_for_nonempty_classes(self, pair):
        _, counts_protocol = pair
        counts = np.array([17, 9, 4] if "undecided" not in counts_protocol.name else [17, 9, 4, 6])
        matrix = _tick_matrix(counts_protocol, counts)
        assert (matrix >= 0).all()
        assert np.allclose(matrix.sum(axis=1), 1.0)

    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p[1].name)
    def test_matrix_matches_empirical_seq_tick(self, pair):
        seq_protocol, counts_protocol = pair
        undecided = "undecided" in counts_protocol.name
        # For USD the last bucket is the undecided label; the agent-side
        # colour count excludes it (make_state widens by one itself).
        counts = np.array([14, 8, 0, 8] if undecided else [16, 8, 6])
        k = counts.size - 1 if undecided else counts.size
        labels = _label_histogram(seq_protocol, counts)
        n = labels.size
        graph = CompleteGraph(n)
        matrix = _tick_matrix(counts_protocol, counts)
        rng = np.random.default_rng(7)
        trials = 3000
        for label in range(counts.size):
            if counts[label] == 0:
                continue
            node = int(np.flatnonzero(labels == label)[0])
            observed = np.zeros(counts.size, dtype=np.int64)
            for _ in range(trials):
                state = seq_protocol.make_state(labels.copy(), k)
                seq_protocol.seq_tick(state, node, graph, rng)
                observed[int(state.colors[node])] += 1
            expected = matrix[label] * trials
            # 4-sigma binomial band per outcome.
            sigma = np.sqrt(np.clip(matrix[label] * (1 - matrix[label]) * trials, 1.0, None))
            assert (np.abs(observed - expected) <= 4 * sigma + 1e-9).all(), (
                f"{counts_protocol.name} label {label}: observed {observed}, expected {expected}"
            )


def _final_c0_mean(engine_runner, trials, seed0):
    values = [engine_runner(seed0 + s) for s in range(trials)]
    return float(np.mean(values)), float(np.var(values))


class TestBatchedChainExactness:
    """Layer 2: the batched histogram chain matches the tick chain."""

    def _compare(self, batch_ticks, n, counts, ticks, trials=300):
        config = ColorConfiguration(counts)
        never = lambda c: False
        agent = SequentialEngine(TwoChoicesSequential(), CompleteGraph(n))
        fast = CountsSequentialEngine(TwoChoicesSequentialCounts(), batch_ticks=batch_ticks)
        agent_mean, agent_var = _final_c0_mean(
            lambda s: agent.run(config, seed=s, max_ticks=ticks, stop=never).final[0], trials, 0
        )
        fast_mean, fast_var = _final_c0_mean(
            lambda s: fast.run(config, seed=s, max_ticks=ticks, stop=never).final[0], trials, 10**6
        )
        sem = np.sqrt((agent_var + fast_var) / trials)
        assert abs(agent_mean - fast_mean) < 4 * sem + 1e-9

    def test_b1_is_the_exact_tick_chain(self):
        """Batch size 1 *is* the single-tick chain — small n, many runs."""
        self._compare(batch_ticks=1, n=60, counts=[40, 20], ticks=120)

    def test_small_batches_match_tick_chain(self):
        """B = 8 at n = 96: batching error is far below sampling noise."""
        self._compare(batch_ticks=8, n=96, counts=[60, 36], ticks=192)

    def test_default_batch_matches_tick_chain(self):
        """The default B = n/256 on a mid-size instance."""
        self._compare(batch_ticks=None, n=512, counts=[320, 192], ticks=1024, trials=200)

    def test_requires_color_configuration(self):
        engine = CountsSequentialEngine(TwoChoicesSequentialCounts())
        with pytest.raises(ConfigurationError):
            engine.run(np.array([5, 5]))

    def test_deterministic_given_seed(self):
        engine = CountsSequentialEngine(TwoChoicesSequentialCounts())
        a = engine.run(ColorConfiguration([700, 300]), seed=42)
        b = engine.run(ColorConfiguration([700, 300]), seed=42)
        assert a.rounds == b.rounds and a.final.counts == b.final.counts

    def test_trace_recording(self):
        engine = CountsSequentialEngine(TwoChoicesSequentialCounts())
        result = engine.run(
            ColorConfiguration([700, 300]), seed=3, record_trace=True, trace_every_parallel=1.0
        )
        assert result.trace is not None
        assert len(result.trace) >= 2


@settings(max_examples=25, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=60), min_size=2, max_size=5).filter(
        lambda c: sum(c) >= 2
    ),
    batch=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_batched_chain_conserves_population(counts, batch, seed):
    """Population conservation and non-negativity for every companion
    protocol, on adversarial inputs (tiny classes exercise the
    overdraw-and-split fallback)."""
    config = ColorConfiguration(counts)
    total = sum(counts)
    never = lambda c: False
    for counts_protocol in (
        TwoChoicesSequentialCounts(),
        VoterSequentialCounts(),
        ThreeMajoritySequentialCounts(),
        UndecidedStateSequentialCounts(),
    ):
        engine = CountsSequentialEngine(counts_protocol, batch_ticks=batch)
        result = engine.run(config, seed=seed, max_ticks=4 * batch, stop=never)
        final = np.asarray(result.final.counts)
        assert int(final.sum()) == total
        assert (final >= 0).all()
        # Absorbed starts may exit at the first check; otherwise the
        # full budget is spent (stop never fires).
        assert result.rounds <= 4 * batch


class TestCrossEngineAgreement:
    """Layer 3: convergence-time distributions agree across engines."""

    N = 600
    TRIALS = 60

    def _times(self, runner, seed0):
        results = [runner(seed0 + s) for s in range(self.TRIALS)]
        assert all(r.converged for r in results)
        return [r.parallel_time for r in results]

    def test_counts_sequential_vs_sequential_ks(self):
        config = two_colors(self.N, int(0.2 * self.N))
        agent = SequentialEngine(TwoChoicesSequential(), CompleteGraph(self.N))
        fast = fastest_engine(TwoChoicesSequential(), CompleteGraph(self.N), model="sequential")
        agent_times = self._times(lambda s: agent.run(config, seed=s), 0)
        fast_times = self._times(lambda s: fast.run(config, seed=s), 10**6)
        statistic, pvalue = ks_two_sample(agent_times, fast_times)
        assert pvalue >= 0.01, f"KS rejected: D={statistic:.3f}, p={pvalue:.4f}"
        # Means agree too (4-sigma band).
        sem = np.sqrt((np.var(agent_times) + np.var(fast_times)) / self.TRIALS)
        assert abs(np.mean(agent_times) - np.mean(fast_times)) < 4 * sem + 1e-9

    def test_counts_continuous_vs_continuous_ks(self):
        config = two_colors(self.N, int(0.2 * self.N))
        agent = ContinuousEngine(TwoChoicesSequential(), CompleteGraph(self.N))
        fast = fastest_engine(TwoChoicesSequential(), CompleteGraph(self.N), model="continuous")
        agent_times = self._times(lambda s: agent.run(config, seed=s), 0)
        fast_times = self._times(lambda s: fast.run(config, seed=s), 10**6)
        statistic, pvalue = ks_two_sample(agent_times, fast_times)
        assert pvalue >= 0.01, f"KS rejected: D={statistic:.3f}, p={pvalue:.4f}"

    def test_counts_voter_consensus_probability(self):
        """Voter on K_n: P(colour 0 wins) equals its initial fraction —
        a distribution-level invariant the fast path must preserve."""
        n = 120
        config = ColorConfiguration([80, 40])
        engine = CountsSequentialEngine(VoterSequentialCounts())
        trials = 150
        results = [engine.run(config, seed=s, max_ticks=400 * n) for s in range(trials)]
        wins = np.mean([r.winner == 0 for r in results if r.converged])
        sigma = np.sqrt((2 / 3) * (1 / 3) / trials)
        assert abs(wins - 2 / 3) < 4 * sigma + 0.02


class TestDispatch:
    def test_sequential_on_complete_takes_counts_fast_path(self):
        big = CompleteGraph(COUNTS_TICK_CROSSOVER)
        engine = fastest_engine(TwoChoicesSequential(), big, model="sequential")
        assert isinstance(engine, CountsSequentialEngine)
        # Below the counts crossover the per-tick agent engine wins.
        engine = fastest_engine(TwoChoicesSequential(), CompleteGraph(100), model="sequential")
        assert isinstance(engine, SequentialEngine)

    def test_continuous_on_complete_takes_counts_fast_path(self):
        big = CompleteGraph(COUNTS_TICK_CROSSOVER)
        engine = fastest_engine(TwoChoicesSequential(), big, model="continuous")
        assert isinstance(engine, CountsContinuousEngine)
        engine = fastest_engine(TwoChoicesSequential(), CompleteGraph(100), model="continuous")
        assert isinstance(engine, ContinuousEngine)

    def test_sequential_counts_protocol_direct(self):
        engine = fastest_engine(TwoChoicesSequentialCounts(), CompleteGraph(100))
        assert isinstance(engine, CountsSequentialEngine)

    def test_sparse_topology_routes_to_sequential_engine(self):
        # Off K_n the size does not route: small and large sparse
        # topologies both take SequentialEngine (full table:
        # tests/test_dispatch_routing.py).
        for topology in (hypercube(5), hypercube(15)):
            engine = fastest_engine(TwoChoicesSequential(), topology, model="sequential")
            assert type(engine) is SequentialEngine

    def test_protocol_without_companion_falls_back(self):
        engine = fastest_engine(AsyncPluralityProtocol(), CompleteGraph(100), model="sequential")
        assert isinstance(engine, SequentialEngine)

    def test_delays_force_event_queue_engine(self):
        engine = fastest_engine(
            TwoChoicesSequential(), CompleteGraph(100), model="continuous", delay_model=FixedDelay(0.1)
        )
        assert isinstance(engine, ContinuousEngine)

    def test_synchronous_routing(self):
        assert isinstance(
            fastest_engine(TwoChoicesCounts(), CompleteGraph(100), model="synchronous"), CountsEngine
        )
        assert isinstance(
            fastest_engine(TwoChoicesSequential(), hypercube(5), model="synchronous"),
            SynchronousEngine,
        )

    def test_invalid_requests_raise(self):
        with pytest.raises(ConfigurationError):
            fastest_engine(TwoChoicesSequential(), CompleteGraph(100), model="warp-drive")
        with pytest.raises(ConfigurationError):
            fastest_engine(
                TwoChoicesSequential(), CompleteGraph(100), model="sequential", delay_model=FixedDelay(0.1)
            )
        with pytest.raises(ConfigurationError):
            fastest_engine(TwoChoicesCounts(), hypercube(5), model="synchronous")

    def test_fast_path_runs_and_converges(self):
        big = CompleteGraph(COUNTS_TICK_CROSSOVER)
        engine = fastest_engine(TwoChoicesSequential(), big, model="sequential")
        n = COUNTS_TICK_CROSSOVER
        result = engine.run(ColorConfiguration([n - 3 * n // 10, 3 * n // 10]), seed=1)
        assert result.converged and result.winner == 0
        assert result.metadata["engine"] == "counts-sequential"


class TestSeqTickBatchHooks:
    """The vectorised batch hooks draw from the per-tick law."""

    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p[0].name)
    def test_batch_hook_matches_per_tick_loop(self, pair):
        seq_protocol, _ = pair
        undecided = "undecided" in seq_protocol.name
        counts = [30, 20]
        k = 2
        labels = _label_histogram(seq_protocol, np.array(counts))
        n = labels.size
        graph = CompleteGraph(n)
        ticks = 150
        trials = 250
        rng_batch = np.random.default_rng(1)
        rng_loop = np.random.default_rng(2)
        batch_c0, loop_c0 = [], []
        for trial in range(trials):
            nodes = np.random.default_rng(1000 + trial).integers(0, n, size=ticks)
            state = seq_protocol.make_state(labels.copy(), k)
            seq_protocol.seq_tick_batch(state, nodes, graph, rng_batch)
            batch_c0.append(int(state.counts()[0]))
            state = seq_protocol.make_state(labels.copy(), k)
            # the reference loop: one seq_tick per node
            SequentialProtocol.seq_tick_batch_loop(seq_protocol, state, nodes, graph, rng_loop)
            loop_c0.append(int(state.counts()[0]))
        sem = np.sqrt((np.var(batch_c0) + np.var(loop_c0)) / trials)
        assert abs(np.mean(batch_c0) - np.mean(loop_c0)) < 4 * sem + 1e-9


class TestTraceCadence:
    """Satellite: trace recording is decoupled from check_every."""

    def test_continuous_trace_honoured_with_large_check_every(self):
        engine = ContinuousEngine(TwoChoicesSequential(), CompleteGraph(200))
        result = engine.run(
            ColorConfiguration([140, 60]),
            seed=5,
            record_trace=True,
            trace_every=1.0,
            check_every=10**9,  # stop checks essentially never fire
            max_time=6.0,
        )
        # One point per unit of parallel time plus endpoints.
        assert len(result.trace) >= 5

    def test_sequential_trace_honoured_with_large_check_every(self):
        engine = SequentialEngine(TwoChoicesSequential(), CompleteGraph(200))
        result = engine.run(
            ColorConfiguration([140, 60]),
            seed=5,
            record_trace=True,
            trace_every_parallel=1.0,
            check_every=10**6,
            max_ticks=6 * 200,
        )
        assert len(result.trace) >= 5
