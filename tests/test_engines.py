"""Tests for the four engines (synchronous, counts, sequential, continuous)."""

import signal

import numpy as np
import pytest

from repro.core.colors import ColorConfiguration
from repro.core.exceptions import ConfigurationError
from repro.engine.base import consensus_reached, near_consensus, plurality_fraction_at_least
from repro.engine.continuous import ContinuousEngine
from repro.engine.counts import CountsEngine
from repro.engine.counts_async import CountsContinuousEngine, CountsSequentialEngine
from repro.engine.delays import ExponentialDelay, FixedDelay
from repro.engine.sequential import SequentialEngine
from repro.engine.synchronous import SynchronousEngine
from repro.graphs.complete import CompleteGraph
from repro.protocols.two_choices import (
    TwoChoicesCounts,
    TwoChoicesSequential,
    TwoChoicesSequentialCounts,
    TwoChoicesSynchronous,
)
from repro.protocols.voter import VoterSequential


class TestStopConditions:
    def test_consensus_reached(self):
        assert consensus_reached(np.array([10, 0]))
        assert not consensus_reached(np.array([9, 1]))

    def test_near_consensus(self):
        stop = near_consensus(0.1)
        assert stop(np.array([95, 5]))
        assert not stop(np.array([85, 15]))

    def test_near_consensus_validation(self):
        with pytest.raises(ConfigurationError):
            near_consensus(0.0)
        with pytest.raises(ConfigurationError):
            near_consensus(1.0)

    def test_plurality_fraction(self):
        stop = plurality_fraction_at_least(0.6)
        assert stop(np.array([60, 40]))
        assert not stop(np.array([59, 41]))

    def test_plurality_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            plurality_fraction_at_least(0.0)


class TestSynchronousEngine:
    def test_converges_with_bias(self):
        engine = SynchronousEngine(TwoChoicesSynchronous(), CompleteGraph(300))
        result = engine.run(ColorConfiguration([220, 80]), seed=1)
        assert result.converged
        assert result.winner == 0
        assert result.parallel_time == result.rounds

    def test_rejects_trace_every_below_one_round(self):
        engine = SynchronousEngine(TwoChoicesSynchronous(), CompleteGraph(30))
        with pytest.raises(ConfigurationError, match="trace_every"):
            engine.run(ColorConfiguration([20, 10]), seed=1, record_trace=True, trace_every=0)

    def test_explicit_color_array(self):
        colors = np.array([0] * 250 + [1] * 50)
        engine = SynchronousEngine(TwoChoicesSynchronous(), CompleteGraph(300))
        result = engine.run(colors, seed=2)
        assert result.initial.counts == (250, 50)

    def test_size_mismatch_rejected(self):
        engine = SynchronousEngine(TwoChoicesSynchronous(), CompleteGraph(10))
        with pytest.raises(ConfigurationError):
            engine.run(ColorConfiguration([5, 6]), seed=0)

    def test_max_rounds_budget(self):
        engine = SynchronousEngine(TwoChoicesSynchronous(), CompleteGraph(200))
        result = engine.run(ColorConfiguration([101, 99]), max_rounds=1, seed=3)
        assert result.rounds <= 1

    def test_trace_recording(self):
        engine = SynchronousEngine(TwoChoicesSynchronous(), CompleteGraph(300))
        result = engine.run(ColorConfiguration([200, 100]), record_trace=True, seed=4)
        assert result.trace is not None
        assert len(result.trace) >= 2
        assert result.trace.points[0].counts == (200, 100)

    def test_deterministic_given_seed(self):
        engine = SynchronousEngine(TwoChoicesSynchronous(), CompleteGraph(300))
        a = engine.run(ColorConfiguration([200, 100]), seed=42)
        b = engine.run(ColorConfiguration([200, 100]), seed=42)
        assert a.rounds == b.rounds
        assert a.final.counts == b.final.counts

    def test_already_converged_start(self):
        engine = SynchronousEngine(TwoChoicesSynchronous(), CompleteGraph(10))
        result = engine.run(ColorConfiguration([10, 0]), seed=0)
        assert result.converged
        assert result.rounds == 0


class TestCountsEngine:
    def test_converges_with_bias(self):
        result = CountsEngine(TwoChoicesCounts()).run(ColorConfiguration([700, 300]), seed=1)
        assert result.converged
        assert result.winner == 0

    def test_population_conserved_along_trace(self):
        result = CountsEngine(TwoChoicesCounts()).run(
            ColorConfiguration([600, 400]), seed=2, record_trace=True
        )
        totals = result.trace.count_matrix().sum(axis=1)
        assert (totals == 1000).all()

    def test_requires_configuration(self):
        with pytest.raises(ConfigurationError):
            CountsEngine(TwoChoicesCounts()).run(np.array([5, 5]), seed=0)

    def test_near_consensus_stop(self):
        result = CountsEngine(TwoChoicesCounts()).run(
            ColorConfiguration([9_000, 1_000]), stop=near_consensus(0.05), seed=3
        )
        assert result.converged
        assert result.final.c1 >= 0.95 * result.final.n

    def test_rejects_trace_every_below_one_round(self):
        # Rounds are integers: a zero cadence used to divide by zero.
        for trace_every in (0, -2):
            with pytest.raises(ConfigurationError, match="trace_every"):
                CountsEngine(TwoChoicesCounts()).run(
                    ColorConfiguration([600, 400]), seed=2, record_trace=True, trace_every=trace_every
                )

    def test_deterministic_given_seed(self):
        engine = CountsEngine(TwoChoicesCounts())
        a = engine.run(ColorConfiguration([700, 300]), seed=9)
        b = engine.run(ColorConfiguration([700, 300]), seed=9)
        assert a.rounds == b.rounds
        assert a.final.counts == b.final.counts


class TestSequentialEngine:
    def test_converges_and_reports_parallel_time(self):
        engine = SequentialEngine(TwoChoicesSequential(), CompleteGraph(200))
        result = engine.run(ColorConfiguration([150, 50]), seed=1)
        assert result.converged
        assert result.winner == 0
        assert result.parallel_time == pytest.approx(result.rounds / 200)

    def test_budget_exhaustion_reported(self):
        engine = SequentialEngine(VoterSequential(), CompleteGraph(100))
        result = engine.run(ColorConfiguration([50, 50]), max_ticks=50, seed=2)
        assert not result.converged or result.rounds <= 50

    def test_trace(self):
        engine = SequentialEngine(TwoChoicesSequential(), CompleteGraph(100))
        result = engine.run(
            ColorConfiguration([70, 30]), record_trace=True, trace_every_parallel=1.0, seed=3
        )
        assert result.trace is not None
        assert len(result.trace) >= 2

    def test_size_mismatch(self):
        engine = SequentialEngine(TwoChoicesSequential(), CompleteGraph(10))
        with pytest.raises(ConfigurationError):
            engine.run(ColorConfiguration([4, 4]), seed=0)


class TestContinuousEngine:
    def test_instantaneous_converges(self):
        engine = ContinuousEngine(TwoChoicesSequential(), CompleteGraph(200))
        result = engine.run(ColorConfiguration([150, 50]), seed=1)
        assert result.converged
        assert result.winner == 0
        assert result.parallel_time > 0

    @pytest.mark.parametrize("delay_model", [None, FixedDelay(0.05)], ids=["instant", "delayed"])
    def test_rejects_nonpositive_trace_every(self, delay_model):
        # A cadence of zero or less never advanced the trace loop.  The
        # alarm turns a regression into a failure instead of a hang.
        def give_up(signum, frame):
            raise TimeoutError("trace loop did not terminate")

        engine = ContinuousEngine(TwoChoicesSequential(), CompleteGraph(40), delay_model=delay_model)
        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(10)
        try:
            for trace_every in (0.0, -1.0):
                with pytest.raises(ConfigurationError, match="trace_every"):
                    engine.run(
                        ColorConfiguration([30, 10]), seed=1, record_trace=True, trace_every=trace_every
                    )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_delayed_converges(self):
        engine = ContinuousEngine(
            TwoChoicesSequential(), CompleteGraph(80), delay_model=FixedDelay(0.05)
        )
        result = engine.run(ColorConfiguration([65, 15]), seed=2, max_time=500.0)
        assert result.converged
        assert result.winner == 0

    def test_delayed_trace_honours_trace_every(self):
        # The event-queue path traces on every event, not only on the
        # stop checks, which land about every 13 time units here.
        n = 2000
        engine = ContinuousEngine(
            TwoChoicesSequential(), CompleteGraph(n), delay_model=ExponentialDelay(0.5)
        )
        result = engine.run(
            ColorConfiguration([1200, 800]),
            record_trace=True,
            trace_every=1.0,
            check_every=20 * n,
            max_time=30.0,
            seed=1,
        )
        times = result.trace.times()
        # A record lands on the first event at or past its grid point,
        # and events arrive at rate >= n, so one event gap is << 0.01.
        assert len(times) >= 31
        assert np.all(np.diff(times) <= 1.0 + 0.01)

    def test_max_time_budget(self):
        engine = ContinuousEngine(VoterSequential(), CompleteGraph(100))
        result = engine.run(ColorConfiguration([50, 50]), max_time=0.5, seed=3)
        assert result.parallel_time <= 0.6

    def test_metadata_names_delay_model(self):
        engine = ContinuousEngine(
            TwoChoicesSequential(), CompleteGraph(50), delay_model=FixedDelay(0.1)
        )
        result = engine.run(ColorConfiguration([40, 10]), seed=4, max_time=200.0)
        assert "FixedDelay" in result.metadata["delay"]

    def test_parallel_time_tracks_ticks_per_node(self):
        """In the Poisson model, T ticks take ~T/n time."""
        engine = ContinuousEngine(TwoChoicesSequential(), CompleteGraph(500))
        result = engine.run(ColorConfiguration([400, 100]), seed=5)
        assert result.parallel_time == pytest.approx(result.rounds / 500, rel=0.35)


#: (engine factory, name of its trace-cadence option) for every tick engine.
TICK_ENGINES = [
    (lambda: SequentialEngine(TwoChoicesSequential(), CompleteGraph(40)), "trace_every_parallel"),
    (lambda: ContinuousEngine(TwoChoicesSequential(), CompleteGraph(40)), "trace_every"),
    (lambda: CountsSequentialEngine(TwoChoicesSequentialCounts()), "trace_every_parallel"),
    (lambda: CountsContinuousEngine(TwoChoicesSequentialCounts()), "trace_every"),
]


@pytest.mark.parametrize("cadence", [0, -1])
@pytest.mark.parametrize(
    "make_engine, option", TICK_ENGINES, ids=["sequential", "continuous", "counts-sequential", "counts-continuous"]
)
def test_tick_engines_reject_nonpositive_trace_cadence(make_engine, option, cadence):
    # A cadence of zero or less would record a trace point on every
    # tick (or every batch).
    with pytest.raises(ConfigurationError, match="trace cadence"):
        make_engine().run(ColorConfiguration([30, 10]), seed=1, record_trace=True, **{option: cadence})
