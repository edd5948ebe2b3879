"""Tests for the endgame (Section 3.2) in isolation: async-plurality
with an empty part one (``phases=0``) from a near-consensus start."""

import math

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.engine.sequential import SequentialEngine
from repro.graphs.complete import CompleteGraph
from repro.protocols.async_plurality import AsyncPluralityProtocol
from repro.workloads.initial import near_consensus_start


def _endgame():
    return AsyncPluralityProtocol(phases=0, endgame_factor=10.0)


def _run(config, seed, **kwargs):
    return SequentialEngine(_endgame(), CompleteGraph(config.n)).run(config, seed=seed, **kwargs)


class TestNearConsensusStart:
    def test_counts(self):
        config = near_consensus_start(1000, 5, 0.1)
        assert config.n == 1000
        assert config.c1 == 900
        assert config.k == 5
        assert sum(config.counts[1:]) == 100

    def test_minority_split_evenly(self):
        config = near_consensus_start(1000, 5, 0.1)
        minority = config.counts[1:]
        assert max(minority) - min(minority) <= 1

    def test_every_color_populated(self):
        config = near_consensus_start(100, 10, 0.02)
        assert all(c >= 1 for c in config.counts)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            near_consensus_start(100, 1, 0.1)
        with pytest.raises(ConfigurationError):
            near_consensus_start(100, 5, 0.9)


class TestZeroPhases:
    def test_every_node_terminates_after_exactly_endgame_ticks(self):
        n = 20
        protocol = _endgame()
        state = protocol.make_state(np.zeros(n, dtype=np.int64), 1)
        budget = state.schedule.endgame_ticks
        assert budget == state.schedule.total_length == math.ceil(10.0 * math.log(n))
        graph = CompleteGraph(n)
        rng = np.random.default_rng(0)
        nodes = np.repeat(np.arange(n), budget - 1)
        protocol.seq_tick_batch(state, rng.permutation(nodes), graph, rng)
        assert not state.terminated.any()
        protocol.seq_tick_batch(state, np.arange(n), graph, rng)
        assert state.terminated.all() and protocol.is_absorbed(state)
        # Ticks after termination change nothing.
        protocol.seq_tick_batch(state, np.arange(n), graph, rng)
        assert (state.real_time == budget).all()


class TestEndgameRuns:
    def test_reaches_consensus_on_plurality(self):
        result = _run(near_consensus_start(500, 4, 0.1), 1)
        assert result.converged
        assert result.winner == 0

    def test_consensus_precedes_first_termination(self):
        config = near_consensus_start(800, 4, 0.1)
        ok = 0
        for seed in range(5):
            result = _run(config, seed, record_trace=True, check_every=200)
            ok += int(result.converged and result.trace.points[-1].fields["terminated"] == 0)
        assert ok >= 4

    def test_consensus_time_logarithmic_ballpark(self):
        result = _run(near_consensus_start(2000, 4, 0.1), 3)
        assert result.converged
        assert result.parallel_time <= 6 * math.log(2000)

    def test_all_nodes_eventually_terminate(self):
        config = near_consensus_start(300, 3, 0.1)
        result = _run(config, 2, stop=lambda counts: False, record_trace=True)
        # budget per node is ceil(factor * ln n); total parallel time is
        # bounded by a small multiple of it
        budget = _endgame().params.compile(300).endgame_ticks
        assert budget == math.ceil(10.0 * math.log(300))
        assert result.trace.points[-1].fields["terminated"] == 300
        assert result.parallel_time < 3 * budget + 50
