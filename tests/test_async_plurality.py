"""Tests for the asynchronous phased protocol (Theorem 1.3) on K_n,
run on the engine ``simulate()`` routes it to (``SequentialEngine``)."""

import numpy as np
import pytest

from repro.analysis import spread_trace
from repro.core.colors import ColorConfiguration
from repro.core.exceptions import ConfigurationError
from repro.engine.base import never
from repro.engine.sequential import SequentialEngine
from repro.graphs.complete import CompleteGraph
from repro.protocols.async_plurality import AsyncPluralityProtocol
from repro.workloads.initial import multiplicative_bias


def _run(config, seed, protocol=None, **kwargs):
    n = config.n if isinstance(config, ColorConfiguration) else len(config)
    engine = SequentialEngine(protocol or AsyncPluralityProtocol(), CompleteGraph(n))
    return engine.run(config, seed=seed, **kwargs)


@pytest.fixture(scope="module")
def converged_run():
    """One shared full run (runs in ~a second)."""
    config = multiplicative_bias(800, 4, 1.8)
    return _run(config, 7, record_trace=True)


class TestFullRuns:
    def test_converges_to_plurality(self, converged_run):
        assert converged_run.converged
        assert converged_run.winner == 0
        assert converged_run.plurality_preserved

    def test_parallel_time_positive_and_bounded(self, converged_run):
        schedule_total = AsyncPluralityProtocol().params.compile(800).total_length
        assert 0 < converged_run.parallel_time < 3 * schedule_total

    def test_trace_fields(self, converged_run):
        for point in converged_run.trace:
            assert point.fields["terminated"] == 0  # consensus comes first
        assert {"spread", "spread_core", "poor_fraction"} <= set(converged_run.trace.points[1].fields)

    def test_spread_trace_recorded(self, converged_run):
        entries = spread_trace(converged_run)
        assert len(entries) > 3
        assert {"time", "spread", "spread_core", "poor_fraction"} <= set(entries[0])
        assert entries[0]["time"] > 0

    def test_deterministic_given_seed(self):
        config = multiplicative_bias(400, 4, 1.8)
        a = _run(config, 99)
        b = _run(config, 99)
        assert a.rounds == b.rounds
        assert a.final.counts == b.final.counts


class TestRunToTermination:
    def test_all_nodes_terminate(self):
        config = multiplicative_bias(400, 4, 2.0)
        result = _run(config, 3, stop=never, record_trace=True)
        assert result.trace.points[-1].fields["terminated"] == 400
        assert result.final.is_consensus()

    def test_consensus_before_first_termination_usually(self):
        # Stop at consensus, checked 4x per time unit: the order holds
        # when no node had terminated by then.
        config = multiplicative_bias(600, 4, 2.0)
        ok = 0
        for seed in range(5):
            result = _run(config, seed, record_trace=True, check_every=150)
            ok += int(result.converged and result.trace.points[-1].fields["terminated"] == 0)
        assert ok >= 4  # w.h.p. claim, small-n slack


class TestVariants:
    def test_sync_disabled_still_converges(self):
        config = multiplicative_bias(600, 4, 2.0)
        protocol = AsyncPluralityProtocol(sync_enabled=False)
        assert protocol.params.compile(600).sync_enabled is False
        assert _run(config, 11, protocol).converged

    def test_explicit_phase_override(self):
        config = multiplicative_bias(400, 2, 2.0)
        protocol = AsyncPluralityProtocol(phases=3)
        assert protocol.params.compile(400).phases == 3
        result = _run(config, 5, protocol, stop=never, record_trace=True)
        assert result.trace.points[-1].fields["terminated"] == 400

    def test_explicit_color_array_input(self):
        colors = np.array([0] * 300 + [1] * 100)
        result = _run(colors, 2)
        assert result.initial.counts == (300, 100)
        assert result.converged

    def test_record_trace(self):
        config = multiplicative_bias(400, 4, 2.0)
        result = _run(config, 8, record_trace=True)
        assert result.trace is not None
        assert len(result.trace) >= 2
        totals = result.trace.count_matrix().sum(axis=1)
        assert (totals == 400).all()

    def test_tiny_population_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncPluralityProtocol().make_state(np.array([0]), 1)

    def test_budget_exhaustion_is_reported_not_raised(self):
        config = multiplicative_bias(400, 4, 1.2)
        result = _run(config, 1, max_ticks=3 * 400)
        assert result.parallel_time <= 3.5
        # far too short to converge
        assert not result.converged and not result.final.is_consensus()


class TestCountsConsistency:
    def test_incremental_counts_match_final_colors(self):
        """The state keeps counts incrementally; the trace's closing
        counts, the reported final counts and the population agree
        (regression guard for the bookkeeping)."""
        config = multiplicative_bias(500, 8, 1.5)
        result = _run(config, 21, stop=never, record_trace=True)
        assert sum(result.final.counts) == 500
        assert result.trace.points[-1].counts == result.final.counts
