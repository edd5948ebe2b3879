"""Tests for repro.core.state."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.state import NO_COLOR, AsyncNodeState, NodeArrayState
from repro.protocols.sync_gadget import SyncSampleBuffer


class TestNodeArrayState:
    def test_basic(self):
        state = NodeArrayState(colors=np.array([0, 1, 1, 2]), k=3)
        assert state.n == 4
        assert state.counts().tolist() == [1, 2, 1]

    def test_configuration_snapshot(self):
        state = NodeArrayState(colors=np.array([0, 0, 1]), k=2)
        assert state.configuration().counts == (2, 1)

    def test_is_consensus(self):
        assert NodeArrayState(colors=np.array([1, 1, 1]), k=2).is_consensus()
        assert not NodeArrayState(colors=np.array([1, 0, 1]), k=2).is_consensus()

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            NodeArrayState(colors=np.array([], dtype=np.int64), k=1)

    def test_rejects_out_of_range_colors(self):
        with pytest.raises(ConfigurationError):
            NodeArrayState(colors=np.array([0, 3]), k=2)

    def test_rejects_negative_colors(self):
        with pytest.raises(ConfigurationError):
            NodeArrayState(colors=np.array([0, -1]), k=2)

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            NodeArrayState(colors=np.zeros((2, 2), dtype=np.int64), k=1)

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            NodeArrayState(colors=np.array([0]), k=0)

    def test_copy_is_independent(self):
        state = NodeArrayState(colors=np.array([0, 1]), k=2)
        clone = state.copy()
        clone.colors[0] = 1
        assert state.colors[0] == 0


class TestAsyncNodeState:
    def test_defaults(self):
        state = AsyncNodeState(colors=np.array([0, 1, 0]), k=2)
        assert state.working_time.tolist() == [0, 0, 0]
        assert state.real_time.tolist() == [0, 0, 0]
        assert not state.bit.any()
        assert (state.intermediate == NO_COLOR).all()
        assert not state.terminated.any()
        assert state.buffers == []

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            AsyncNodeState(colors=np.array([0, 1]), k=2, working_time=np.zeros(3, dtype=np.int64))

    def test_working_time_spread_full(self):
        state = AsyncNodeState(colors=np.array([0, 1, 0, 1]), k=2)
        state.working_time = np.array([0, 5, 10, 3])
        assert state.working_time_spread() == 10

    def test_working_time_spread_excludes_terminated(self):
        state = AsyncNodeState(colors=np.array([0, 1, 0]), k=2)
        state.working_time = np.array([0, 100, 2])
        state.terminated = np.array([False, True, False])
        assert state.working_time_spread() == 2

    def test_working_time_spread_quantile_trims_tails(self):
        state = AsyncNodeState(colors=np.zeros(101, dtype=np.int64), k=1)
        wt = np.full(101, 50)
        wt[0] = 0  # one extreme straggler
        state.working_time = wt
        assert state.working_time_spread() == 50
        assert state.working_time_spread(quantile=0.9) == 0

    def test_spread_all_terminated_is_zero(self):
        state = AsyncNodeState(colors=np.array([0, 1]), k=2)
        state.terminated = np.array([True, True])
        assert state.working_time_spread() == 0

    def test_copy_deep(self):
        state = AsyncNodeState(colors=np.array([0, 1]), k=2, buffers=[SyncSampleBuffer(), SyncSampleBuffer()])
        state.buffers[0].collect(0, 3, 0)
        clone = state.copy()
        clone.buffers[0].collect(0, 4, 0)
        clone.bit[1] = True
        assert state.buffers[0].offsets == [3]
        assert not state.bit[1]
