"""Tests for the Two-Choices protocol in all three realisations."""

import numpy as np
import pytest

from repro.core.colors import ColorConfiguration
from repro.core.state import NodeArrayState
from repro.engine.counts import CountsEngine
from repro.engine.synchronous import SynchronousEngine
from repro.graphs.complete import CompleteGraph
from repro.protocols.two_choices import TwoChoicesCounts, TwoChoicesSequential


class TestSequentialRule:
    def test_adopts_on_agreement(self):
        protocol = TwoChoicesSequential()
        state = NodeArrayState(colors=np.array([0, 1, 1]), k=2)
        protocol.tick_apply(state, 0, np.array([1, 1]))
        assert state.colors[0] == 1

    def test_keeps_on_disagreement(self):
        protocol = TwoChoicesSequential()
        state = NodeArrayState(colors=np.array([0, 1, 1]), k=2)
        protocol.tick_apply(state, 0, np.array([0, 1]))
        assert state.colors[0] == 0

    def test_tick_targets_two_samples(self, rng, small_clique):
        protocol = TwoChoicesSequential()
        state = NodeArrayState(colors=np.zeros(16, dtype=np.int64), k=1)
        targets = protocol.tick_targets(state, 3, small_clique, rng)
        assert len(targets) == 2
        assert (targets != 3).all()

    def test_seq_tick_composition(self, rng, small_clique):
        protocol = TwoChoicesSequential()
        # All other nodes share colour 1, so the tick must adopt it.
        colors = np.ones(16, dtype=np.int64)
        colors[5] = 0
        state = NodeArrayState(colors=colors, k=2)
        protocol.seq_tick(state, 5, small_clique, rng)
        assert state.colors[5] == 1


class TestSynchronousRound:
    def test_consensus_is_absorbing(self, rng):
        protocol = TwoChoicesSequential()
        state = NodeArrayState(colors=np.ones(50, dtype=np.int64), k=2)
        protocol.round_update(state, CompleteGraph(50), rng)
        assert (state.colors == 1).all()
        assert protocol.is_absorbed(state)

    def test_population_conserved(self, rng):
        protocol = TwoChoicesSequential()
        state = NodeArrayState(colors=np.array([0] * 30 + [1] * 20), k=2)
        protocol.round_update(state, CompleteGraph(50), rng)
        assert state.colors.size == 50
        assert set(np.unique(state.colors)) <= {0, 1}


class TestCountsTransition:
    def test_population_conserved(self, rng):
        protocol = TwoChoicesCounts()
        counts = protocol.init_counts(ColorConfiguration([600, 300, 100]))
        for _ in range(20):
            counts = protocol.step(counts, rng)
            assert counts.sum() == 1000
            assert (counts >= 0).all()

    def test_consensus_absorbing(self, rng):
        protocol = TwoChoicesCounts()
        counts = np.array([500, 0, 0])
        stepped = protocol.step(counts, rng)
        assert stepped.tolist() == [500, 0, 0]
        assert protocol.is_absorbed(stepped)

    def test_expected_drift_favours_plurality(self, rng):
        """One-round mean change of c1 must be positive under bias."""
        protocol = TwoChoicesCounts()
        start = np.array([6_000, 4_000])
        gains = []
        for _ in range(200):
            stepped = protocol.step(start.copy(), rng)
            gains.append(int(stepped[0]) - 6_000)
        assert np.mean(gains) > 0

    def test_agrees_with_agent_based_distribution(self):
        """The counts engine draws from the agent round's exact law:
        one-round marginals must match statistically."""
        n = 400
        config = ColorConfiguration([240, 160])
        trials = 300
        agent_rng = np.random.default_rng(7)
        counts_rng = np.random.default_rng(8)
        graph = CompleteGraph(n)
        agent_protocol = TwoChoicesSequential()
        counts_protocol = TwoChoicesCounts()
        agent_c1, counts_c1 = [], []
        for _ in range(trials):
            state = agent_protocol.make_state(
                np.array([0] * 240 + [1] * 160), k=2
            )
            agent_protocol.round_update(state, graph, agent_rng)
            agent_c1.append(int(state.counts()[0]))
            counts_c1.append(int(counts_protocol.step(np.array([240, 160]), counts_rng)[0]))
        mean_a, mean_c = np.mean(agent_c1), np.mean(counts_c1)
        pooled_sem = np.sqrt((np.var(agent_c1) + np.var(counts_c1)) / trials)
        assert abs(mean_a - mean_c) < 4 * pooled_sem + 1e-9

    def test_full_run_preserves_strong_plurality(self):
        engine = CountsEngine(TwoChoicesCounts())
        wins = 0
        for seed in range(10):
            result = engine.run(ColorConfiguration([7_000, 3_000]), seed=seed)
            wins += int(result.plurality_preserved)
        assert wins == 10
