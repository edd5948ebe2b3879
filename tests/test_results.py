"""Tests for repro.core.results."""

import json

import numpy as np
import pytest

from repro.core.colors import ColorConfiguration
from repro.core.results import RunResult, Trace, TracePoint


class TestTrace:
    def test_record_and_lengths(self):
        trace = Trace()
        trace.record(0, [5, 5])
        trace.record(1.5, [7, 3])
        assert len(trace) == 2
        assert trace.times().tolist() == [0.0, 1.5]

    def test_count_matrix(self):
        trace = Trace()
        trace.record(0, [5, 5])
        trace.record(1, [8, 2])
        matrix = trace.count_matrix()
        assert matrix.shape == (2, 2)
        assert matrix[1].tolist() == [8, 2]

    def test_empty_matrix(self):
        assert Trace().count_matrix().size == 0

    def test_bias_trace(self):
        trace = Trace()
        trace.record(0, [5, 5, 0])
        trace.record(1, [8, 2, 0])
        assert trace.bias_trace().tolist() == [0, 6]

    def test_bias_trace_single_color(self):
        trace = Trace()
        trace.record(0, [10])
        assert trace.bias_trace().tolist() == [10]

    def test_point_configuration(self):
        point = TracePoint(time=1.0, counts=(3, 2))
        assert point.configuration.c1 == 3

    def test_iteration(self):
        trace = Trace()
        trace.record(0, [1, 2])
        assert [p.time for p in trace] == [0.0]

    def test_fields_default_to_none(self):
        trace = Trace()
        trace.record(0, [1, 2])
        assert trace.points[0].fields is None

    def test_record_stores_fields(self):
        trace = Trace()
        trace.record(2, [3, 0], {"terminated": 3})
        assert trace.points[0] == TracePoint(time=2.0, counts=(3, 0), fields={"terminated": 3})


class TestRunResult:
    def _result(self, converged=True, winner=0, initial=(6, 4), final=(10, 0)):
        return RunResult(
            converged=converged,
            winner=winner,
            rounds=5,
            parallel_time=5.0,
            initial=ColorConfiguration(list(initial)),
            final=ColorConfiguration(list(final)),
        )

    def test_plurality_preserved(self):
        assert self._result().plurality_preserved

    def test_plurality_not_preserved_wrong_winner(self):
        assert not self._result(winner=1, final=(0, 10)).plurality_preserved

    def test_plurality_not_preserved_when_unconverged(self):
        assert not self._result(converged=False, winner=None).plurality_preserved

    def test_plurality_undefined_for_tied_start(self):
        assert not self._result(initial=(5, 5)).plurality_preserved

    def test_to_dict_json_serialisable(self):
        result = self._result()
        result.metadata["numpy_value"] = np.int64(3)
        result.metadata["array"] = np.array([1.5, 2.5])
        result.metadata["nested"] = {"flag": np.bool_(True)}
        payload = json.dumps(result.to_dict())
        decoded = json.loads(payload)
        assert decoded["winner"] == 0
        assert decoded["metadata"]["numpy_value"] == 3
        assert decoded["metadata"]["array"] == [1.5, 2.5]
        assert decoded["metadata"]["nested"]["flag"] is True

    def test_to_dict_fields(self):
        payload = self._result().to_dict()
        assert payload["initial_counts"] == [6, 4]
        assert payload["final_counts"] == [10, 0]
        assert payload["plurality_preserved"] is True
        assert payload["rounds"] == 5
