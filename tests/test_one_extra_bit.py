"""Tests for the OneExtraBit protocol (Theorem 1.2)."""

import numpy as np
import pytest

from repro.core.colors import ColorConfiguration
from repro.core.exceptions import ConfigurationError
from repro.engine.counts import CountsEngine
from repro.engine.synchronous import SynchronousEngine
from repro.graphs.complete import CompleteGraph
from repro.protocols.one_extra_bit import (
    OneExtraBitCounts,
    OneExtraBitSynchronous,
    default_bp_rounds,
)


def _state(bit_set, bit_unset, round_index=0):
    """A counts state row: bit-set | bit-unset | round index."""
    return np.concatenate([bit_set, bit_unset, [round_index]]).astype(np.int64)


class TestDefaultBpRounds:
    def test_grows_with_k(self):
        assert default_bp_rounds(10_000, 64) > default_bp_rounds(10_000, 2)

    def test_grows_slowly_with_n(self):
        assert default_bp_rounds(10**9, 2) <= default_bp_rounds(10**3, 2) + 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            default_bp_rounds(1, 2)
        with pytest.raises(ConfigurationError):
            default_bp_rounds(100, 0)

    def test_respects_extra(self):
        assert default_bp_rounds(1000, 4, extra=5) == default_bp_rounds(1000, 4, extra=2) + 3


class TestAgentBased:
    def test_state_has_bit_and_round_index(self):
        protocol = OneExtraBitSynchronous()
        state = protocol.make_state(np.array([0, 1, 1, 0]), k=2)
        assert not state.bit.any()
        assert state.round_index == 0

    def test_tc_round_sets_bits_on_agreement(self, rng):
        protocol = OneExtraBitSynchronous(bp_rounds=3)
        # Unanimous population: both samples always agree.
        state = protocol.make_state(np.zeros(30, dtype=np.int64), k=2)
        protocol.round_update(state, CompleteGraph(30), rng)
        assert state.bit.all()
        assert state.round_index == 1

    def test_bp_round_spreads_bits(self, rng):
        protocol = OneExtraBitSynchronous(bp_rounds=3)
        state = protocol.make_state(np.array([0] * 20 + [1] * 20), k=2)
        state.round_index = 1  # force a bit-propagation round
        state.bit[:5] = True
        before = state.bit.sum()
        protocol.round_update(state, CompleteGraph(40), rng)
        assert state.bit.sum() >= before  # bits never disappear during BP

    def test_bp_adopters_copy_bit_holder_colors(self, rng):
        protocol = OneExtraBitSynchronous(bp_rounds=3)
        state = protocol.make_state(np.array([0] * 20 + [1] * 20), k=2)
        state.round_index = 1
        state.bit[:20] = True  # exactly the colour-0 nodes carry the bit
        protocol.round_update(state, CompleteGraph(40), rng)
        adopters = state.bit[20:]
        assert (state.colors[20:][adopters] == 0).all()

    def test_full_run_converges(self):
        engine = SynchronousEngine(OneExtraBitSynchronous(), CompleteGraph(400))
        result = engine.run(ColorConfiguration([250, 100, 50]), seed=3, max_rounds=500)
        assert result.converged
        assert result.winner == 0

    def test_bp_rounds_validation(self):
        with pytest.raises(ConfigurationError):
            OneExtraBitSynchronous(bp_rounds=0)


class TestCountsBased:
    def test_init_state(self):
        protocol = OneExtraBitCounts()
        state = protocol.init_counts(ColorConfiguration([70, 30]))
        assert state.tolist() == _state([0, 0], [70, 30], 0).tolist()

    def test_round_index_advances_through_phases(self, rng):
        protocol = OneExtraBitCounts(bp_rounds=2)
        state = protocol.init_counts(ColorConfiguration([600, 300, 100]))
        for expected in range(1, 8):
            state = protocol.step(state, rng)
            assert state[-1] == expected

    def test_population_conserved_over_phases(self, rng):
        protocol = OneExtraBitCounts(bp_rounds=4)
        state = protocol.init_counts(ColorConfiguration([600, 300, 100]))
        for _ in range(25):
            state = protocol.step(state, rng)
            assert int(protocol.color_counts(state).sum()) == 1000
            assert (state >= 0).all()

    def test_tc_step_bit_count_concentrates(self, rng):
        """After one TC round, bit-set colour-1 mass ~ c1^2/n (the
        concentration Section 2 states)."""
        protocol = OneExtraBitCounts(bp_rounds=4)
        n, c1 = 100_000, 60_000
        state = protocol.init_counts(ColorConfiguration([c1, n - c1]))
        samples = [int(protocol.step(state, rng)[0]) for _ in range(30)]
        expected = c1**2 / n
        assert np.mean(samples) == pytest.approx(expected, rel=0.02)

    def test_bp_step_grows_bits(self, rng):
        protocol = OneExtraBitCounts(bp_rounds=4)
        state = _state([100, 20], [500, 380], round_index=1)
        for _ in range(4):
            stepped = protocol.step(state, rng)
            # Bit-set counts never shrink during Bit-Propagation, per colour.
            assert (stepped[:2] >= state[:2]).all()
            assert int(protocol.color_counts(stepped).sum()) == 1000
            state = stepped
        assert int(state[:2].sum()) > 120

    def test_bp_rows_advance_independently(self, rng):
        protocol = OneExtraBitCounts(bp_rounds=4)
        states = np.stack([_state([100, 20], [500, 380], 1), _state([300, 700], [0, 0], 1)])
        stepped = protocol.step_ensemble(states, rng)
        assert (stepped[:, -1] == 2).all()
        # Every bit is already set in row 1: Bit-Propagation is a no-op.
        assert stepped[1].tolist() == _state([300, 700], [0, 0], 2).tolist()
        assert int(stepped[0, :2].sum()) >= 120

    def test_full_run_converges_faster_than_two_choices_at_large_k(self):
        """The headline of Theorem 1.2 at a small scale."""
        from repro.protocols.two_choices import TwoChoicesCounts
        from repro.workloads.initial import theorem_1_1_gap

        config = theorem_1_1_gap(200_000, 64, z=1.0)
        tc = CountsEngine(TwoChoicesCounts()).run(config, seed=1)
        oeb = CountsEngine(OneExtraBitCounts()).run(config, seed=1)
        assert tc.converged and oeb.converged
        assert tc.winner == 0 and oeb.winner == 0

    def test_agrees_with_agent_based_tc_round(self):
        """One TC round: counts-level and agent-level bit totals agree."""
        n = 500
        trials = 200
        agent_rng = np.random.default_rng(11)
        counts_rng = np.random.default_rng(12)
        graph = CompleteGraph(n)
        agent = OneExtraBitSynchronous(bp_rounds=3)
        counts = OneExtraBitCounts(bp_rounds=3)
        agent_bits, counts_bits = [], []
        colors = np.array([0] * 300 + [1] * 200)
        for _ in range(trials):
            state = agent.make_state(colors.copy(), k=2)
            agent.round_update(state, graph, agent_rng)
            agent_bits.append(int(state.bit.sum()))
            cstate = counts.init_counts(ColorConfiguration([300, 200]))
            cstate = counts.step(cstate, counts_rng)
            counts_bits.append(int(cstate[:2].sum()))
        pooled_sem = np.sqrt((np.var(agent_bits) + np.var(counts_bits)) / trials)
        assert abs(np.mean(agent_bits) - np.mean(counts_bits)) < 4 * pooled_sem + 1e-9

    def test_color_counts_projection(self):
        protocol = OneExtraBitCounts()
        assert protocol.color_counts(_state([5, 1], [10, 4], 3)).tolist() == [15, 5]
        states = np.stack([_state([5, 1], [10, 4], 3), _state([0, 0], [2, 18], 3)])
        assert protocol.color_counts_ensemble(states).tolist() == [[15, 5], [2, 18]]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OneExtraBitCounts(bp_rounds=0)
