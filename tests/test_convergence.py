"""Tests for repro.analysis.convergence."""

import numpy as np
import pytest

from repro.analysis.convergence import (
    per_phase_ratio_growth,
    ratio_trace,
    spread_trace,
    synchrony_summary,
    time_to_fraction,
)
from repro.core.colors import ColorConfiguration
from repro.core.exceptions import ConfigurationError
from repro.core.results import RunResult, Trace


def _trace(snapshots):
    trace = Trace()
    for t, counts in snapshots:
        trace.record(t, counts)
    return trace


class TestTimeToFraction:
    def test_finds_first_crossing(self):
        trace = _trace([(0, [5, 5]), (1, [7, 3]), (2, [9, 1])])
        assert time_to_fraction(trace, 0.7) == 1.0
        assert time_to_fraction(trace, 0.9) == 2.0

    def test_none_when_never_reached(self):
        trace = _trace([(0, [5, 5]), (1, [6, 4])])
        assert time_to_fraction(trace, 0.95) is None

    def test_empty_trace(self):
        assert time_to_fraction(Trace(), 0.5) is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            time_to_fraction(Trace(), 0.0)


class TestRatioTrace:
    def test_basic(self):
        trace = _trace([(0, [6, 3, 1]), (1, [8, 2, 0])])
        ratios = ratio_trace(trace)
        assert ratios[0] == pytest.approx(2.0)
        assert ratios[1] == pytest.approx(4.0)

    def test_infinite_when_c2_zero(self):
        trace = _trace([(0, [10, 0])])
        assert np.isinf(ratio_trace(trace)[0])

    def test_single_color(self):
        trace = _trace([(0, [10])])
        assert np.isinf(ratio_trace(trace)[0])

    def test_empty(self):
        assert ratio_trace(Trace()).size == 0


class TestPerPhaseGrowth:
    def test_quadratic_series(self):
        ratios = [1.2, 1.2**2, 1.2**4, 1.2**8]
        growth = per_phase_ratio_growth(ratios)
        assert len(growth) == 3
        assert all(g == pytest.approx(2.0) for g in growth)

    def test_stops_at_saturation(self):
        ratios = [1.5, 2.25, float("inf")]
        growth = per_phase_ratio_growth(ratios)
        assert len(growth) == 1

    def test_stops_below_one(self):
        assert per_phase_ratio_growth([1.0, 2.0]) == []

    def test_empty(self):
        assert per_phase_ratio_growth([]) == []


class TestSynchronySummary:
    def _result_with_spread(self, entries):
        # Trace points as the async protocol's trace_fields leave them:
        # a spread-free start at time 0 and, once every node terminated,
        # a closing point with the terminated count only.
        trace = Trace()
        trace.record(0.0, [5, 5], {"terminated": 0, "spread": 0, "spread_core": 0, "poor_fraction": 0.0})
        for entry in entries:
            fields = {key: value for key, value in entry.items() if key != "time"}
            trace.record(entry["time"], [5, 5], {"terminated": 0, **fields})
        trace.record(99.0, [10, 0], {"terminated": 10})
        return RunResult(
            converged=True,
            winner=0,
            rounds=10,
            parallel_time=10.0,
            initial=ColorConfiguration([5, 5]),
            final=ColorConfiguration([10, 0]),
            trace=trace,
        )

    def test_aggregates(self):
        entries = [
            {"time": 1.0, "spread": 10, "spread_core": 5, "poor_fraction": 0.1},
            {"time": 2.0, "spread": 20, "spread_core": 8, "poor_fraction": 0.3},
        ]
        summary = synchrony_summary(self._result_with_spread(entries))
        assert summary["samples"] == 2
        assert summary["max_spread"] == 20.0
        assert summary["mean_spread"] == 15.0
        assert summary["max_core_spread"] == 8.0
        assert summary["max_poor_fraction"] == 0.3

    def test_time_filter(self):
        entries = [
            {"time": 1.0, "spread": 10, "spread_core": 5, "poor_fraction": 0.1},
            {"time": 50.0, "spread": 99, "spread_core": 90, "poor_fraction": 0.9},
        ]
        summary = synchrony_summary(self._result_with_spread(entries), until_parallel_time=10.0)
        assert summary["samples"] == 1
        assert summary["max_spread"] == 10.0

    def test_empty_trace(self):
        summary = synchrony_summary(self._result_with_spread([]))
        assert summary["samples"] == 0
        assert summary["max_spread"] is None


class TestSpreadTrace:
    def _result(self, trace):
        return RunResult(
            converged=True,
            winner=0,
            rounds=10,
            parallel_time=3.0,
            initial=ColorConfiguration([5, 5]),
            final=ColorConfiguration([10, 0]),
            trace=trace,
        )

    def test_no_trace_is_empty(self):
        assert spread_trace(self._result(None)) == []

    def test_entries_skip_the_start_and_spread_free_points(self):
        trace = Trace()
        trace.record(0.0, [5, 5], {"terminated": 0, "spread": 0})
        trace.record(1.0, [6, 4], {"terminated": 0, "spread": 4})
        trace.record(2.0, [8, 2])
        trace.record(3.0, [10, 0], {"terminated": 10})
        assert spread_trace(self._result(trace)) == [{"time": 1.0, "terminated": 0, "spread": 4}]

    def test_until_is_inclusive(self):
        trace = Trace()
        for time in (1.0, 2.0, 3.0):
            trace.record(time, [5, 5], {"spread": int(time)})
        entries = spread_trace(self._result(trace), until_parallel_time=2.0)
        assert [entry["time"] for entry in entries] == [1.0, 2.0]
