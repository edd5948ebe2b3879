"""Cross-engine consistency: the counts engine must draw from the same
one-round law as the agent engine, for every protocol that has both.

Two-Choices and OneExtraBit are covered in their own test modules; this
module covers Voter, 3-Majority and Undecided-State, plus multi-round
full-run agreement checks and hypothesis-driven conservation tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.colors import ColorConfiguration
from repro.engine.counts import CountsEngine
from repro.engine.sequential import SequentialEngine
from repro.engine.synchronous import SynchronousEngine
from repro.graphs.complete import CompleteGraph
from repro.protocols.three_majority import ThreeMajorityCounts, ThreeMajoritySequential
from repro.protocols.two_choices import TwoChoicesCounts, TwoChoicesSequential
from repro.protocols.undecided_state import UndecidedStateCounts, UndecidedStateSequential
from repro.protocols.voter import VoterCounts, VoterSequential


def _one_round_means(agent_protocol, counts_protocol, colors, counts_vector, trials=250):
    """Mean post-round count of colour 0 under both engines."""
    n = colors.size
    graph = CompleteGraph(n)
    agent_rng = np.random.default_rng(21)
    counts_rng = np.random.default_rng(22)
    agent_values, counts_values = [], []
    for _ in range(trials):
        state = agent_protocol.make_state(colors.copy(), k=len(counts_vector))
        agent_protocol.round_update(state, graph, agent_rng)
        agent_values.append(int(state.counts()[0]))
        counts_state = counts_protocol.init_counts(ColorConfiguration(list(counts_vector)))
        counts_state = counts_protocol.step(counts_state, counts_rng)
        counts_values.append(int(counts_protocol.color_counts(counts_state)[0]))
    pooled_sem = np.sqrt((np.var(agent_values) + np.var(counts_values)) / trials)
    return np.mean(agent_values), np.mean(counts_values), pooled_sem


class TestOneRoundLawAgreement:
    def test_voter(self):
        colors = np.array([0] * 250 + [1] * 150)
        a, c, sem = _one_round_means(VoterSequential(), VoterCounts(), colors, [250, 150])
        assert abs(a - c) < 4 * sem + 1e-9

    def test_three_majority(self):
        colors = np.array([0] * 200 + [1] * 130 + [2] * 70)
        a, c, sem = _one_round_means(
            ThreeMajoritySequential(), ThreeMajorityCounts(), colors, [200, 130, 70]
        )
        assert abs(a - c) < 4 * sem + 1e-9

    def test_undecided_state(self):
        colors = np.array([0] * 240 + [1] * 160)
        a, c, sem = _one_round_means(
            UndecidedStateSequential(), UndecidedStateCounts(), colors, [240, 160]
        )
        assert abs(a - c) < 4 * sem + 1e-9


class TestFullRunAgreement:
    def test_two_choices_round_counts_match_across_engines(self):
        """Rounds-to-consensus distributions agree between the agent
        and counts engines on the same workload."""
        n = 600
        config = ColorConfiguration([400, 200])
        trials = 25
        agent_engine = SynchronousEngine(TwoChoicesSequential(), CompleteGraph(n))
        counts_engine = CountsEngine(TwoChoicesCounts())
        agent_rounds = [agent_engine.run(config, seed=s).rounds for s in range(trials)]
        counts_rounds = [counts_engine.run(config, seed=100 + s).rounds for s in range(trials)]
        pooled_sem = np.sqrt((np.var(agent_rounds) + np.var(counts_rounds)) / trials)
        assert abs(np.mean(agent_rounds) - np.mean(counts_rounds)) < 4 * pooled_sem + 0.5

    def test_sequential_matches_synchronous_timescale(self):
        """Two-Choices: sequential parallel time tracks synchronous
        round count on the same workload (same dynamics, one tick per
        node per unit time vs one round per unit time)."""
        n = 500
        config = ColorConfiguration([350, 150])
        trials = 10
        sync_engine = SynchronousEngine(TwoChoicesSequential(), CompleteGraph(n))
        seq_engine = SequentialEngine(TwoChoicesSequential(), CompleteGraph(n))
        sync_rounds = np.mean([sync_engine.run(config, seed=s).rounds for s in range(trials)])
        seq_time = np.mean([seq_engine.run(config, seed=50 + s).parallel_time for s in range(trials)])
        # Same Theta; constants differ by O(1) (sequential updates are
        # incremental rather than simultaneous).
        assert 0.3 * sync_rounds < seq_time < 3.5 * sync_rounds


@settings(max_examples=25, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=400), min_size=2, max_size=6).filter(
        lambda c: sum(c) >= 2
    ),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_counts_protocols_conserve_population(counts, seed):
    """Every counts protocol conserves the population on arbitrary
    inputs (the fundamental invariant of the exact engines)."""
    rng = np.random.default_rng(seed)
    total = sum(counts)
    config = ColorConfiguration(counts)
    for protocol in (VoterCounts(), TwoChoicesCounts(), ThreeMajorityCounts(), UndecidedStateCounts()):
        state = protocol.init_counts(config)
        for _ in range(3):
            state = protocol.step(state, rng)
            projected = protocol.color_counts(state)
            assert int(np.sum(projected)) == total
            assert (np.asarray(projected) >= 0).all()
