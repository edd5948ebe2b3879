"""Tests for the stubborn/Byzantine fault wrappers and masked states.

Covers the mask semantics (honest-only accounting, write suppression at
every layer), composition order-independence, the batched-vs-loop
exactness pin, and the registry / spec plumbing that makes fault stacks
serializable campaign axes.
"""

import json

import numpy as np
import pytest

from repro.api import FAULTS, SimulationSpec, simulate
from repro.api.cache import spec_key
from repro.core.colors import ColorConfiguration
from repro.core.exceptions import ConfigurationError
from repro.core.state import NodeArrayState
from repro.engine.sequential import SequentialEngine
from repro.graphs.complete import CompleteGraph
from repro.graphs.sparse import ring
from repro.protocols.faults import ByzantineProtocol, FaultMaskedState, StubbornProtocol
from repro.protocols.lossy import LossyProtocol
from repro.protocols.three_majority import ThreeMajoritySequential
from repro.protocols.two_choices import TwoChoicesSequential
from repro.protocols.voter import VoterSequential


def _split_colors(n: int, c0: int) -> np.ndarray:
    colors = np.ones(n, dtype=np.int64)
    colors[:c0] = 0
    return colors


class TestFaultMaskedState:
    def test_counts_and_consensus_are_honest_only(self):
        colors = np.array([0, 0, 0, 1, 1], dtype=np.int64)
        frozen = np.array([False, False, False, True, True])
        state = FaultMaskedState(colors=colors, k=2, frozen=frozen)
        assert state.counts().tolist() == [3, 0]
        assert state.configuration() == ColorConfiguration([3, 0])
        assert state.is_consensus()  # the two dissenters are faulty

    def test_default_mask_is_all_honest(self):
        state = FaultMaskedState(colors=np.zeros(4, dtype=np.int64), k=1)
        assert not state.frozen.any()
        assert state.counts().tolist() == [4]

    def test_copy_is_deep(self):
        state = FaultMaskedState(
            colors=np.array([0, 1], dtype=np.int64),
            k=2,
            frozen=np.array([True, False]),
        )
        clone = state.copy()
        clone.colors[1] = 0
        clone.frozen[1] = True
        assert state.colors[1] == 1
        assert not state.frozen[1]

    def test_all_frozen_rejected(self):
        with pytest.raises(ConfigurationError, match="no honest node"):
            FaultMaskedState(
                colors=np.zeros(3, dtype=np.int64), k=1, frozen=np.ones(3, dtype=bool)
            )

    def test_mask_shape_validated(self):
        with pytest.raises(ConfigurationError, match="shape"):
            FaultMaskedState(
                colors=np.zeros(3, dtype=np.int64), k=1, frozen=np.zeros(4, dtype=bool)
            )


class TestStubbornProtocol:
    def test_mask_size_is_floor_of_fraction(self):
        protocol = StubbornProtocol(TwoChoicesSequential(), 0.1)
        state = protocol.make_state(_split_colors(95, 60), k=2)
        assert isinstance(state, FaultMaskedState)
        assert int(state.frozen.sum()) == 9  # floor(0.1 * 95)

    def test_frozen_nodes_keep_initial_colors(self):
        n = 200
        protocol = StubbornProtocol(TwoChoicesSequential(), 0.15, fault_seed=3)
        colors = _split_colors(n, 120)
        state = protocol.make_state(colors.copy(), k=2)
        frozen = state.frozen.copy()
        topology = CompleteGraph(n)
        rng = np.random.default_rng(7)
        for _ in range(20):
            nodes = rng.integers(0, n, size=512)
            protocol.seq_tick_batch(state, nodes, topology, rng)
        assert np.array_equal(state.colors[frozen], colors[frozen])

    def test_fault_seed_pins_the_set(self):
        protocol_a = StubbornProtocol(VoterSequential(), 0.2, fault_seed=1)
        protocol_b = StubbornProtocol(VoterSequential(), 0.2, fault_seed=1)
        protocol_c = StubbornProtocol(VoterSequential(), 0.2, fault_seed=2)
        colors = _split_colors(100, 50)
        mask_a = protocol_a.make_state(colors.copy(), 2).frozen
        mask_b = protocol_b.make_state(colors.copy(), 2).frozen
        mask_c = protocol_c.make_state(colors.copy(), 2).frozen
        assert np.array_equal(mask_a, mask_b)
        assert not np.array_equal(mask_a, mask_c)

    def test_name_and_footprint_delegation(self):
        inner = TwoChoicesSequential()
        protocol = StubbornProtocol(inner, 0.1)
        assert protocol.name == f"{inner.name}+stubborn(0.1)"
        assert protocol.tick_footprint == inner.tick_footprint
        assert protocol.tick_kernel is None  # kernels do not know the mask

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="fraction"):
            StubbornProtocol(TwoChoicesSequential(), 1.0)
        with pytest.raises(ConfigurationError, match="fraction"):
            StubbornProtocol(TwoChoicesSequential(), -0.1)
        with pytest.raises(ConfigurationError, match="sequential"):
            StubbornProtocol(object(), 0.1)

    def test_engine_reports_honest_consensus(self):
        n = 300
        protocol = StubbornProtocol(TwoChoicesSequential(), 0.1, fault_seed=5)
        engine = SequentialEngine(protocol, CompleteGraph(n))
        result = engine.run(ColorConfiguration([220, 80]), seed=11)
        assert result.converged
        # Honest-only accounting: exactly n - floor(0.1 n) nodes counted.
        assert int(sum(result.final.counts)) == n - 30


class TestByzantineProtocol:
    def test_worst_case_reports_runner_up(self):
        colors = np.array([0] * 6 + [1] * 3 + [2] * 1, dtype=np.int64)
        protocol = ByzantineProtocol(VoterSequential(), 0.3, fault_seed=1)
        state = protocol.make_state(colors.copy(), k=3)
        assert np.all(state.colors[state.frozen] == 1)  # runner-up of (6, 3, 1)

    def test_explicit_color(self):
        colors = _split_colors(40, 30)
        protocol = ByzantineProtocol(VoterSequential(), 0.25, color=0)
        state = protocol.make_state(colors.copy(), k=2)
        assert np.all(state.colors[state.frozen] == 0)
        assert "->0" in protocol.name
        assert "worst-case" in ByzantineProtocol(VoterSequential(), 0.25).name

    def test_color_out_of_range_rejected(self):
        protocol = ByzantineProtocol(VoterSequential(), 0.25, color=5)
        with pytest.raises(ConfigurationError, match="out of range"):
            protocol.make_state(_split_colors(40, 30), k=2)
        with pytest.raises(ConfigurationError, match="color"):
            ByzantineProtocol(VoterSequential(), 0.25, color=-1)

    def test_single_color_universe(self):
        protocol = ByzantineProtocol(VoterSequential(), 0.2)
        state = protocol.make_state(np.zeros(10, dtype=np.int64), k=1)
        assert np.all(state.colors == 0)

    def test_byzantine_push_flips_small_gaps(self):
        """The worst-case adversary props up the runner-up: with a thin
        initial gap the honest nodes settle on the adversary's colour."""
        n = 300
        protocol = ByzantineProtocol(TwoChoicesSequential(), 0.15, fault_seed=2)
        engine = SequentialEngine(protocol, CompleteGraph(n))
        flipped = 0
        for seed in range(6):
            result = engine.run(ColorConfiguration([155, 145]), seed=seed)
            if result.converged and result.winner == 1:
                flipped += 1
        assert flipped >= 4  # colour 1 wins despite starting behind


class TestCompositionOrderIndependence:
    def test_masks_and_colors_commute(self):
        colors = _split_colors(400, 240)
        stack_a = StubbornProtocol(
            ByzantineProtocol(TwoChoicesSequential(), 0.05, fault_seed=9), 0.1, fault_seed=9
        )
        stack_b = ByzantineProtocol(
            StubbornProtocol(TwoChoicesSequential(), 0.1, fault_seed=9), 0.05, fault_seed=9
        )
        state_a = stack_a.make_state(colors.copy(), 2)
        state_b = stack_b.make_state(colors.copy(), 2)
        assert np.array_equal(state_a.frozen, state_b.frozen)
        assert np.array_equal(state_a.colors, state_b.colors)

    def test_distinct_tags_give_distinct_sets(self):
        colors = _split_colors(400, 240)
        stubborn = StubbornProtocol(VoterSequential(), 0.1, fault_seed=0)
        byzantine = ByzantineProtocol(VoterSequential(), 0.1, color=0, fault_seed=0)
        mask_s = stubborn.make_state(colors.copy(), 2).frozen
        mask_b = byzantine.make_state(colors.copy(), 2).frozen
        assert not np.array_equal(mask_s, mask_b)

    def test_trajectory_equality_with_zero_loss_anywhere(self):
        """With p=0 the lossy layer draws nothing, so any nesting of the
        three wrappers runs the identical trajectory on the same seed."""
        n = 150
        config = ColorConfiguration([100, 50])

        def stack_lossy_outer():
            return LossyProtocol(
                StubbornProtocol(
                    ByzantineProtocol(TwoChoicesSequential(), 0.05, fault_seed=4),
                    0.1,
                    fault_seed=4,
                ),
                0.0,
            )

        def stack_lossy_inner():
            return ByzantineProtocol(
                StubbornProtocol(LossyProtocol(TwoChoicesSequential(), 0.0), 0.1, fault_seed=4),
                0.05,
                fault_seed=4,
            )

        results = []
        for factory in (stack_lossy_outer, stack_lossy_inner):
            engine = SequentialEngine(factory(), CompleteGraph(n))
            results.append(engine.run(config, seed=21, max_ticks=60 * n))
        first, second = results
        assert first.rounds == second.rounds
        assert tuple(first.final.counts) == tuple(second.final.counts)
        assert first.converged == second.converged


class TestBatchedLoopIdentity:
    """The frozen mask only shrinks the write set, so the hazard-batched
    ``seq_tick_batch`` must stay bit-identical to the per-tick
    ``tick_apply`` loop on the same presampled draws."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: StubbornProtocol(TwoChoicesSequential(), 0.15, fault_seed=6),
            lambda: ByzantineProtocol(TwoChoicesSequential(), 0.1, fault_seed=6),
            lambda: StubbornProtocol(
                ByzantineProtocol(TwoChoicesSequential(), 0.05, fault_seed=6), 0.1, fault_seed=6
            ),
        ],
        ids=["stubborn", "byzantine", "stubborn-byzantine"],
    )
    @pytest.mark.parametrize("topology", [CompleteGraph(120), ring(120)], ids=["K_n", "ring"])
    def test_batch_matches_loop(self, factory, topology):
        protocol = factory()
        colors = _split_colors(120, 70)
        ticks = 3000
        rng_batch = np.random.default_rng(99)
        rng_loop = np.random.default_rng(99)
        state_batch = protocol.make_state(colors.copy(), 2)
        state_loop = protocol.make_state(colors.copy(), 2)

        nodes = rng_batch.integers(0, 120, size=ticks)
        protocol.seq_tick_batch(state_batch, nodes, topology, rng_batch)

        nodes_loop = rng_loop.integers(0, 120, size=ticks)
        samples = protocol.tick_footprint.samples
        targets = topology.sample_neighbors_block(nodes_loop, samples, rng_loop)
        for i, node in enumerate(nodes_loop.tolist()):
            protocol.tick_apply(state_loop, node, state_loop.colors[targets[i]])

        assert np.array_equal(nodes, nodes_loop)
        assert np.array_equal(state_batch.colors, state_loop.colors)
        assert np.array_equal(state_batch.frozen, state_loop.frozen)


class TestRegistryAndSpec:
    def test_registry_lists_all_wrappers(self):
        assert {"loss", "stubborn", "byzantine", "slow-clocks"} <= set(FAULTS.names())

    def test_registry_builds_wrap_protocols(self):
        inner = TwoChoicesSequential()
        wrapped = FAULTS.build("stubborn", {"fraction": 0.1}, inner)
        assert isinstance(wrapped, StubbornProtocol)
        assert wrapped.inner is inner
        lossy = FAULTS.build("loss", {"p": 0.25}, inner)
        assert isinstance(lossy, LossyProtocol)

    def test_spec_faults_round_trip_json(self):
        spec = SimulationSpec(
            protocol="two-choices",
            n=80,
            reps=2,
            seed=5,
            faults=[
                {"name": "stubborn", "params": {"fraction": 0.1, "fault_seed": 1}},
                "loss",
            ],
        )
        hop = SimulationSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert hop == spec
        assert hop.faults[1] == {"name": "loss", "params": {}}

    def test_fault_free_spec_omits_the_key(self):
        spec = SimulationSpec(protocol="two-choices", n=80, seed=5)
        assert "faults" not in spec.to_dict()

    def test_spec_key_distinguishes_fault_stacks(self):
        plain = SimulationSpec(protocol="two-choices", n=80, seed=5)
        faulty = plain.replace(faults=[{"name": "stubborn", "params": {"fraction": 0.1}}])
        other = plain.replace(faults=[{"name": "stubborn", "params": {"fraction": 0.2}}])
        assert len({spec_key(plain), spec_key(faulty), spec_key(other)}) == 3

    def test_synchronous_model_rejects_faults(self):
        with pytest.raises(ConfigurationError, match="sequential"):
            SimulationSpec(
                protocol="two-choices",
                n=80,
                model="synchronous",
                faults=[{"name": "stubborn", "params": {"fraction": 0.1}}],
            )

    def test_unknown_fault_name_rejected_at_build(self):
        spec = SimulationSpec(
            protocol="two-choices", n=40, seed=1, faults=[{"name": "gremlins"}]
        )
        with pytest.raises(ConfigurationError, match="gremlins"):
            simulate(spec)

    def test_simulate_with_fault_stack(self):
        spec = SimulationSpec(
            protocol="two-choices",
            n=150,
            reps=2,
            seed=9,
            initial="two-colors",
            initial_params={"gap": 50},
            faults=[
                {"name": "byzantine", "params": {"fraction": 0.05, "fault_seed": 2}},
                {"name": "loss", "params": {"p": 0.1}},
            ],
        )
        result = simulate(spec)
        assert result.reps == 2
        # Honest-only accounting again, through the whole spec pipeline.
        assert int(sum(result.runs[0].final.counts)) == 150 - 7

    def test_three_majority_wrapped_converges(self):
        n = 200
        protocol = StubbornProtocol(ThreeMajoritySequential(), 0.05, fault_seed=1)
        engine = SequentialEngine(protocol, CompleteGraph(n))
        result = engine.run(ColorConfiguration([140, 60]), seed=3)
        assert result.converged
        assert result.winner == 0
