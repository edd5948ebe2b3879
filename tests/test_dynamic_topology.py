"""Tests for :class:`ChurnTopology` and the engines' epoch-cut contract.

Covers the epoch purity rule (advance_to replays identically forwards,
backwards, or from scratch), the rewire/rebirth churn semantics against
the documented tagged-stream contract, the registry / spec plumbing of
``dynamic-ring`` / ``dynamic-torus``, and a per-tick reference pin that
replays the sequential engine's block schedule — epoch cuts included —
tick by tick on the same draws.
"""

import json

import numpy as np
import pytest

from repro.api import TOPOLOGIES, SimulationSpec, simulate
from repro.api.cache import spec_key
from repro.core.colors import ColorConfiguration
from repro.core.exceptions import ConfigurationError, TopologyError
from repro.core.rng import as_generator
from repro.engine import ContinuousEngine, SynchronousEngine
from repro.engine.sequential import SequentialEngine
from repro.graphs.complete import CompleteGraph
from repro.graphs.dynamic import _EPOCH_TAG, ChurnTopology
from repro.graphs.sparse import ring, torus
from repro.protocols.two_choices import TwoChoicesSequential, TwoChoicesSynchronous


def _churned_ring(n=64, rate=0.3, **kwargs) -> ChurnTopology:
    return ChurnTopology(ring(n), rate, **kwargs)


class TestAdvanceTo:
    def test_epoch_is_pure_function_of_index(self):
        stepwise = _churned_ring(churn_seed=7)
        direct = _churned_ring(churn_seed=7)
        for epoch in range(6):
            stepwise.advance_to(epoch)
        direct.advance_to(5)
        np.testing.assert_array_equal(stepwise._flat, direct._flat)

    def test_backwards_resets_and_replays(self):
        topo = _churned_ring(churn_seed=7)
        topo.advance_to(7)
        topo.advance_to(3)
        fresh = _churned_ring(churn_seed=7)
        fresh.advance_to(3)
        assert topo.epoch == 3
        np.testing.assert_array_equal(topo._flat, fresh._flat)

    def test_epoch_zero_is_base_graph(self):
        base = ring(64)
        topo = ChurnTopology(ring(64), 0.5, churn_seed=1)
        topo.advance_to(4)
        assert not np.array_equal(topo._flat, base._flat)
        topo.advance_to(0)
        np.testing.assert_array_equal(topo._flat, base._flat)

    def test_negative_epoch_rejected(self):
        with pytest.raises(TopologyError, match="non-negative"):
            _churned_ring().advance_to(-1)


class TestChurnRules:
    def test_degrees_frozen_and_no_self_loops(self):
        topo = ChurnTopology(torus(8, 8), 1.0, churn_seed=3)
        base_degrees = torus(8, 8)._degrees
        for epoch in (1, 5, 9):
            topo.advance_to(epoch)
            np.testing.assert_array_equal(topo._degrees, base_degrees)
            assert not np.any(topo._flat == topo._slot_owner)

    @pytest.mark.parametrize("rule", ["rewire", "rebirth"])
    def test_zero_rate_is_static(self, rule):
        topo = ChurnTopology(ring(48), 0.0, churn_seed=2, rule=rule)
        topo.advance_to(10)
        np.testing.assert_array_equal(topo._flat, ring(48)._flat)

    @pytest.mark.parametrize("rule", ["rewire", "rebirth"])
    def test_epoch_draws_follow_tagged_stream_contract(self, rule):
        """Pin the documented per-epoch seeding: epoch e draws from
        ``SeedSequence(churn_seed, spawn_key=(TAG, e))`` — mask first,
        then owner-shifted uniform redraws over the masked slots."""
        n, rate, seed = 80, 0.4, 17
        topo = ChurnTopology(ring(n), rate, churn_seed=seed, rule=rule)
        topo.advance_to(1)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(_EPOCH_TAG, 1))
        )
        owners = np.repeat(np.arange(n, dtype=np.int64), ring(n)._degrees)
        if rule == "rewire":
            mask = rng.random(owners.size) < rate
        else:
            mask = (rng.random(n) < rate)[owners]
        expected = ring(n)._flat.copy()
        draws = rng.integers(0, n - 1, size=int(mask.sum()))
        draws += draws >= owners[mask]
        expected[mask] = draws
        np.testing.assert_array_equal(topo._flat, expected)

    def test_rebirth_changes_are_row_aligned(self):
        n = 200
        topo = ChurnTopology(ring(n), 0.3, churn_seed=5, rule="rebirth")
        topo.advance_to(1)
        changed = topo._flat != ring(n)._flat
        rows = changed.reshape(n, 2)  # ring is 2-regular
        # A surviving node's row is untouched; reborn rows may keep a
        # slot by coincidence, but some row must change in both slots
        # (rewire at this rate would mostly flip single slots).
        assert np.any(rows.all(axis=1))

    def test_validation(self):
        with pytest.raises(TopologyError, match="churn_rate"):
            ChurnTopology(ring(16), 1.5)
        with pytest.raises(TopologyError, match="rule"):
            ChurnTopology(ring(16), 0.1, rule="mutate")
        with pytest.raises(TopologyError, match="epoch_ticks"):
            ChurnTopology(ring(16), 0.1, epoch_ticks=0)
        with pytest.raises(TopologyError, match="AdjacencyTopology"):
            ChurnTopology(CompleteGraph(16), 0.1)


class TestEngineEpochCuts:
    def test_sequential_engine_matches_per_tick_reference(self):
        """Replay the engine's block schedule — epoch cuts included —
        as a per-tick loop on the same presampled draws; the batched
        run must be value-identical (hazard-free-prefix exactness on a
        per-epoch-constant graph)."""
        n, epoch_ticks, max_ticks, seed = 300, 37, 160, 5
        protocol = TwoChoicesSequential()
        colors0 = np.ones(n, dtype=np.int64)
        colors0[: n // 2] = 0

        engine_topo = ChurnTopology(ring(n), 0.1, epoch_ticks=epoch_ticks, churn_seed=11)
        result = SequentialEngine(protocol, engine_topo).run(
            colors0.copy(), max_ticks=max_ticks, seed=seed
        )
        assert result.rounds == max_ticks

        rng = as_generator(seed)
        state = protocol.make_state(colors0.copy(), 2)
        topo = ChurnTopology(ring(n), 0.1, epoch_ticks=epoch_ticks, churn_seed=11)
        topo.advance_to(0)
        samples = protocol.tick_footprint.samples
        check_every = n
        ticks = 0
        while ticks < max_ticks:
            to_check = check_every - ticks % check_every
            block = min(8192, max_ticks - ticks, to_check)
            topo.advance_to(ticks // epoch_ticks)
            block = min(block, epoch_ticks - ticks % epoch_ticks)
            nodes = rng.integers(0, n, size=block)
            targets = topo.sample_neighbors_block(nodes, samples, rng)
            for i in range(block):
                protocol.tick_apply(state, int(nodes[i]), state.colors[targets[i]])
            ticks += block
        np.testing.assert_array_equal(np.asarray(result.final.counts), state.counts())

    def test_shared_topology_object_resets_between_runs(self):
        """Replications share one topology object; the run-start
        ``advance_to(0)`` reset must make them independent of whatever
        epoch the previous run left behind."""
        n = 200
        protocol = TwoChoicesSequential()
        colors0 = np.ones(n, dtype=np.int64)
        colors0[: n // 2 + 20] = 0
        shared = ChurnTopology(ring(n), 0.2, epoch_ticks=50, churn_seed=9)
        engine = SequentialEngine(protocol, shared)
        first = engine.run(colors0.copy(), max_ticks=400, seed=3)
        assert shared.epoch > 0  # the run actually advanced the clock
        second = engine.run(colors0.copy(), max_ticks=400, seed=3)
        fresh = SequentialEngine(
            protocol, ChurnTopology(ring(n), 0.2, epoch_ticks=50, churn_seed=9)
        ).run(colors0.copy(), max_ticks=400, seed=3)
        for other in (second, fresh):
            assert first.rounds == other.rounds
            assert tuple(first.final.counts) == tuple(other.final.counts)


    @pytest.mark.parametrize(
        "make_engine",
        [
            lambda topo: ContinuousEngine(TwoChoicesSequential(), topo),
            lambda topo: SynchronousEngine(TwoChoicesSynchronous(), topo),
        ],
        ids=["continuous", "synchronous"],
    )
    def test_engines_without_an_epoch_clock_refuse_dynamic_topologies(self, make_engine):
        """Only the sequential engine advances the epoch clock; the
        others would run on whatever epoch the object was left at."""
        topo = _churned_ring(n=1000, rate=0.05)
        SequentialEngine(TwoChoicesSequential(), topo).run(ColorConfiguration([600, 400]), max_ticks=2000, seed=7)
        assert topo.epoch > 0
        with pytest.raises(ConfigurationError, match="tick-epoch"):
            make_engine(topo)


class TestRegistryAndSpec:
    def test_dynamic_ring_builds(self):
        topo = TOPOLOGIES.build(
            "dynamic-ring", {"churn_rate": 0.2, "epoch_ticks": 50, "churn_seed": 3}, 64
        )
        assert isinstance(topo, ChurnTopology)
        assert topo.n == 64
        assert topo.epoch_ticks == 50
        assert topo.rule == "rewire"

    def test_dynamic_torus_default_rows(self):
        topo = TOPOLOGIES.build("dynamic-torus", {"churn_rate": 0.1, "rule": "rebirth"}, 60)
        assert isinstance(topo, ChurnTopology)
        assert topo.n == 60
        assert topo.rule == "rebirth"
        # 60 factorises most squarely as 6 x 10: every node has 4 slots.
        np.testing.assert_array_equal(topo._degrees, np.full(60, 4))

    def test_epoch_ticks_defaults_to_n(self):
        topo = TOPOLOGIES.build("dynamic-ring", {"churn_rate": 0.1}, 48)
        assert topo.epoch_ticks == 48

    def test_spec_round_trip_and_key(self):
        spec = SimulationSpec(
            protocol="three-majority",
            n=120,
            topology="dynamic-ring",
            topology_params={"churn_rate": 0.3, "epoch_ticks": 60, "rule": "rebirth"},
            initial="two-colors",
            initial_params={"gap": 20},
            reps=2,
            seed=99,
            max_steps=3000,
        )
        hopped = SimulationSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert spec_key(hopped) == spec_key(spec)
        static = spec.replace(topology="ring", topology_params={})
        assert spec_key(static) != spec_key(spec)

    def test_simulate_is_deterministic(self):
        spec = SimulationSpec(
            protocol="two-choices",
            n=150,
            topology="dynamic-ring",
            topology_params={"churn_rate": 0.2, "epoch_ticks": 75},
            initial="two-colors",
            initial_params={"gap": 30},
            reps=2,
            seed=41,
            max_steps=6000,
        )
        first = simulate(spec)
        second = simulate(spec)
        assert [run.to_dict() for run in first.runs] == [
            run.to_dict() for run in second.runs
        ]
