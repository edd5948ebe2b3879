"""Tests for slow clocks (``SlowClocks``, ablation A1): Poisson thinning
of a fraction of the nodes' ticks around any tick protocol."""

import numpy as np
import pytest

from repro.api import SimulationSpec, resolve, simulate
from repro.core.exceptions import ConfigurationError
from repro.engine.continuous import ContinuousEngine
from repro.engine.delays import ExponentialDelay
from repro.engine.ensemble import run_replicated
from repro.engine.sequential import SequentialEngine
from repro.graphs.complete import CompleteGraph
from repro.protocols.async_plurality import AsyncPluralityProtocol
from repro.protocols.lossy import LossyProtocol
from repro.protocols.slow_clocks import SlowClocks
from repro.workloads.initial import multiplicative_bias


def _run(n, fraction, rate, seed, **kwargs):
    protocol = SlowClocks(AsyncPluralityProtocol(), fraction, rate)
    return SequentialEngine(protocol, CompleteGraph(n)).run(multiplicative_bias(n, 4, 2.0), seed=seed, **kwargs)


class TestSlowClocksConfig:
    def test_slow_count(self):
        assert SlowClocks(AsyncPluralityProtocol(), 0.1, 0.5).slow_count(100) == 10
        # unit-rate "slow" clocks are no slow clocks at all
        assert SlowClocks(AsyncPluralityProtocol(), 0.5, 1.0).slow_count(100) == 0

    def test_validation(self):
        inner = AsyncPluralityProtocol()
        for fraction, rate in ((1.0, 0.5), (-0.1, 0.5), (0.1, 0.0), (0.1, 3.0)):
            with pytest.raises(ConfigurationError):
                SlowClocks(inner, fraction, rate)
        with pytest.raises(ConfigurationError):
            SlowClocks(object(), 0.1, 0.5)

    def test_budget_stretches_by_one_over_rate(self):
        inner = AsyncPluralityProtocol()
        assert SlowClocks(inner, 0.1, 0.5).default_budget(400) == pytest.approx(2 * inner.default_budget(400))
        assert SlowClocks(inner, 0.0, 0.5).default_budget(400) == inner.default_budget(400)

    def test_budget_composes_with_the_loss_wrapper(self):
        inner = AsyncPluralityProtocol()
        wrapped = SlowClocks(LossyProtocol(inner, 0.1), 0.1, 0.25)
        assert wrapped.default_budget(400) == pytest.approx(4 * inner.default_budget(400))


class TestSlowClockRuns:
    @pytest.mark.parametrize("fraction,rate", [(0.0, 0.3), (0.4, 1.0)])
    def test_no_slow_node_equals_the_unwrapped_run(self, fraction, rate):
        n = 400
        config = multiplicative_bias(n, 4, 2.0)
        plain = SequentialEngine(AsyncPluralityProtocol(), CompleteGraph(n)).run(config, seed=5, record_trace=True)
        wrapped = _run(n, fraction, rate, 5, record_trace=True)
        payloads = [plain.to_dict(), wrapped.to_dict()]
        for payload in payloads:
            payload["metadata"].pop("protocol")
        assert payloads[0] == payloads[1]
        assert plain.trace.points == wrapped.trace.points

    def test_no_slow_node_equals_the_unwrapped_continuous_run(self):
        n = 300
        config = multiplicative_bias(n, 4, 2.0)
        plain = ContinuousEngine(AsyncPluralityProtocol(), CompleteGraph(n)).run(config, seed=8)
        wrapped = ContinuousEngine(SlowClocks(AsyncPluralityProtocol(), 0.0, 0.5), CompleteGraph(n)).run(config, seed=8)
        payloads = [plain.to_dict(), wrapped.to_dict()]
        for payload in payloads:
            payload["metadata"].pop("protocol")
        assert payloads[0] == payloads[1]

    def test_trace_fields_come_from_the_inner_protocol(self):
        result = _run(300, 0.1, 0.5, 2, stop=lambda counts: False, record_trace=True)
        first, last = result.trace.points[0].fields, result.trace.points[-1].fields
        assert first["terminated"] == 0 and "spread" in first
        assert last == {"terminated": 300}

    def test_thinning_runs_slow_nodes_at_their_rate(self):
        # Without the Sync Gadget and before any node terminates, a
        # node's real time counts its own kept ticks.
        n, slow, rate = 400, 100, 0.4
        protocol = SlowClocks(AsyncPluralityProtocol(sync_enabled=False), slow / n, rate)
        state = protocol.make_state(np.zeros(n, dtype=np.int64), 1)
        rng = np.random.default_rng(3)
        graph = CompleteGraph(n)
        for _ in range(20):
            protocol.seq_tick_batch(state, rng.integers(0, n, size=n), graph, rng)
        real_time = np.asarray(state.real_time, dtype=float)
        assert not state.terminated.any()
        ratio = real_time[:slow].mean() / real_time[slow:].mean()
        assert ratio == pytest.approx(rate, abs=0.05)

    def test_small_skew_still_converges(self):
        result = _run(800, 0.05, 0.3, 9)
        assert result.converged
        assert result.winner == 0

    def test_skew_slows_parallel_time(self):
        """Slow clocks are waited for: mean consensus time grows."""
        base = np.mean([_run(600, 0.0, 1.0, s).parallel_time for s in range(3)])
        skewed = np.mean([_run(600, 0.25, 0.3, s).parallel_time for s in range(3)])
        assert skewed > base

    def test_population_conserved_under_skew(self):
        result = _run(500, 0.2, 0.5, 4, stop=lambda counts: False)
        assert sum(result.final.counts) == 500

    def test_delayed_path_is_refused(self):
        protocol = SlowClocks(AsyncPluralityProtocol(), 0.1, 0.5)
        engine = ContinuousEngine(protocol, CompleteGraph(100), delay_model=ExponentialDelay(1.0))
        with pytest.raises(ConfigurationError):
            engine.run(multiplicative_bias(100, 4, 2.0), seed=1)


def _slow_spec(protocol="async-plurality", n=300, fraction=0.1, rate=0.5, **fields):
    return SimulationSpec(
        protocol=protocol, n=n, initial="multiplicative-bias", initial_params={"k": 4, "ratio": 2.0},
        faults=[{"name": "slow-clocks", "params": {"fraction": fraction, "rate": rate}}], **fields,
    )


class TestSlowClocksSpec:
    def test_spec_equals_the_hand_wired_wrapper(self):
        sim = simulate(_slow_spec(reps=6, seed=11))
        engine = SequentialEngine(SlowClocks(AsyncPluralityProtocol(), 0.1, 0.5), CompleteGraph(300))
        reference = run_replicated(engine, multiplicative_bias(300, 4, 2.0), 6, seed=11)
        assert [r.to_dict() for r in sim.runs] == [r.to_dict() for r in reference]

    @pytest.mark.parametrize("model,engine", [("sequential", SequentialEngine), ("continuous", ContinuousEngine)])
    def test_counts_route_never_bypasses_the_thinning(self, model, engine):
        # n * reps is past the counts crossover, where a bare
        # two-choices spec takes its counts companion.
        spec = _slow_spec("two-choices", n=20_000, model=model, reps=8)
        resolved = resolve(spec)
        assert type(resolved.engine) is engine
        assert isinstance(resolved.protocol, SlowClocks)

    def test_delayed_spec_is_refused(self):
        with pytest.raises(ConfigurationError):
            simulate(_slow_spec(model="continuous", delay="exponential", seed=1))
