"""Tests for the baseline protocols: Voter, 3-Majority, Undecided-State."""

import numpy as np
import pytest

from repro.core.colors import ColorConfiguration
from repro.core.state import NodeArrayState
from repro.engine.counts import CountsEngine
from repro.engine.sequential import SequentialEngine
from repro.graphs.complete import CompleteGraph
from repro.protocols.three_majority import (
    ThreeMajorityCounts,
    ThreeMajoritySequential,
    _majority_of_three,
)
from repro.protocols.undecided_state import UndecidedStateCounts, UndecidedStateSequential
from repro.protocols.voter import VoterCounts, VoterSequential


class TestVoter:
    def test_sequential_always_adopts(self, rng, small_clique):
        protocol = VoterSequential()
        state = NodeArrayState(colors=np.array([0] + [1] * 15), k=2)
        protocol.tick_apply(state, 0, np.array([1]))
        assert state.colors[0] == 1

    def test_counts_conserves_population(self, rng):
        protocol = VoterCounts()
        counts = protocol.init_counts(ColorConfiguration([300, 200]))
        for _ in range(30):
            counts = protocol.step(counts, rng)
            assert counts.sum() == 500

    def test_counts_is_fair_lottery(self):
        """P(colour j wins) ~ c_j / n — voter does NOT amplify bias."""
        engine = CountsEngine(VoterCounts())
        config = ColorConfiguration([60, 40])
        wins = 0
        trials = 120
        for seed in range(trials):
            result = engine.run(config, seed=seed, max_rounds=20_000)
            if result.converged and result.winner == 0:
                wins += 1
        rate = wins / trials
        # 0.6 +- 5 sigma binomial band.
        assert abs(rate - 0.6) < 5 * np.sqrt(0.6 * 0.4 / trials)

    def test_synchronous_round(self, rng):
        protocol = VoterSequential()
        state = NodeArrayState(colors=np.ones(30, dtype=np.int64), k=2)
        protocol.round_update(state, CompleteGraph(30), rng)
        assert (state.colors == 1).all()


class TestThreeMajority:
    def test_majority_helper(self):
        a = np.array([0, 0, 1, 2])
        b = np.array([0, 1, 1, 0])
        c = np.array([1, 1, 1, 2])
        # all-distinct case (last column) keeps the first sample... but
        # here b==c for column 3? No: b=0, c=2 distinct -> first sample 2.
        assert _majority_of_three(a, b, c).tolist() == [0, 1, 1, 2]

    def test_sequential_majority_pair_beats_first(self):
        protocol = ThreeMajoritySequential()
        state = NodeArrayState(colors=np.array([0, 1, 1, 2]), k=3)
        protocol.tick_apply(state, 0, np.array([2, 1, 1]))
        assert state.colors[0] == 1

    def test_sequential_all_distinct_takes_first(self):
        protocol = ThreeMajoritySequential()
        state = NodeArrayState(colors=np.array([0, 1, 1, 2]), k=3)
        protocol.tick_apply(state, 0, np.array([2, 1, 0]))
        assert state.colors[0] == 2

    def test_counts_conserves_and_converges(self, rng):
        protocol = ThreeMajorityCounts()
        counts = protocol.init_counts(ColorConfiguration([700, 200, 100]))
        for _ in range(25):
            counts = protocol.step(counts, rng)
            assert counts.sum() == 1000
        engine = CountsEngine(protocol)
        result = engine.run(ColorConfiguration([700, 200, 100]), seed=5)
        assert result.converged
        assert result.winner == 0

    def test_counts_adoption_probabilities_sum_to_one(self):
        """The per-group adopt distribution is a probability vector."""
        counts = np.array([500.0, 300.0, 200.0])
        n = counts.sum()
        q = counts.copy()
        q[0] -= 1
        q /= n - 1
        s2 = float(np.sum(q * q))
        adopt = q**3 + 3 * q**2 * (1 - q) + q * ((1 - q) ** 2 - (s2 - q**2))
        assert adopt.sum() == pytest.approx(1.0, abs=1e-12)

    def test_synchronous_consensus_absorbing(self, rng):
        protocol = ThreeMajoritySequential()
        state = NodeArrayState(colors=np.zeros(40, dtype=np.int64), k=2)
        protocol.round_update(state, CompleteGraph(40), rng)
        assert (state.colors == 0).all()


class TestUndecidedState:
    def test_state_has_extra_label(self):
        protocol = UndecidedStateSequential()
        state = protocol.make_state(np.array([0, 1, 1]), k=2)
        assert state.k == 3  # colours 0,1 plus undecided=2

    def test_conflict_makes_undecided(self):
        protocol = UndecidedStateSequential()
        state = protocol.make_state(np.array([0, 1, 1]), k=2)
        protocol.tick_apply(state, 0, np.array([1]))
        assert state.colors[0] == 2

    def test_same_color_keeps(self):
        protocol = UndecidedStateSequential()
        state = protocol.make_state(np.array([0, 0, 1]), k=2)
        protocol.tick_apply(state, 0, np.array([0]))
        assert state.colors[0] == 0

    def test_undecided_adopts_decided(self):
        protocol = UndecidedStateSequential()
        state = protocol.make_state(np.array([0, 1, 1]), k=2)
        state.colors[0] = 2  # undecided
        protocol.tick_apply(state, 0, np.array([1]))
        assert state.colors[0] == 1

    def test_undecided_ignores_undecided(self):
        protocol = UndecidedStateSequential()
        state = protocol.make_state(np.array([0, 1, 1]), k=2)
        state.colors[0] = 2
        state.colors[1] = 2
        protocol.tick_apply(state, 0, np.array([2]))
        assert state.colors[0] == 2

    def test_decided_ignores_undecided_sample(self):
        protocol = UndecidedStateSequential()
        state = protocol.make_state(np.array([0, 1, 1]), k=2)
        state.colors[1] = 2
        protocol.tick_apply(state, 0, np.array([2]))
        assert state.colors[0] == 0

    def test_counts_reports_k_plus_one_buckets(self, rng):
        protocol = UndecidedStateCounts()
        counts = protocol.init_counts(ColorConfiguration([60, 40]))
        assert counts.tolist() == [60, 40, 0]
        stepped = protocol.step(counts, rng)
        assert stepped.sum() == 100
        assert stepped.size == 3

    def test_counts_converges_with_bias(self):
        engine = CountsEngine(UndecidedStateCounts())
        result = engine.run(ColorConfiguration([800, 200]), seed=4, max_rounds=5_000)
        assert result.converged
        assert result.winner == 0
        assert result.final.counts[-1] == 0  # no undecided mass at the end

    def test_sequential_full_run(self):
        engine = SequentialEngine(UndecidedStateSequential(), CompleteGraph(150))
        result = engine.run(ColorConfiguration([120, 30]), seed=6)
        assert result.converged
        assert result.winner == 0

    def test_synchronous_round_conserves(self, rng):
        protocol = UndecidedStateSequential()
        state = protocol.make_state(np.array([0] * 25 + [1] * 15), k=2)
        protocol.round_update(state, CompleteGraph(40), rng)
        assert state.colors.size == 40
        assert set(np.unique(state.colors)) <= {0, 1, 2}

    def test_absorbed_detection(self, rng):
        protocol = UndecidedStateCounts()
        assert protocol.is_absorbed(np.array([100, 0, 0]))
        assert not protocol.is_absorbed(np.array([99, 0, 1]))
        assert protocol.is_absorbed(np.array([0, 0, 100]))  # all-undecided trap
