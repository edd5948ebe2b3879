"""The sparse-topology hazard-batched fast path.

Four layers of guarantees, mirroring the exactness argument in
``repro/core/hazard.py``:

1. *Unit*: ``HazardScratch.prefix_length`` on hand-built blocks,
   including write-mask and stale-epoch cases.
2. *Bit-exact pinning*: on the **same presampled draws**,
   ``apply_hazard_free`` and each of its realisations (the scalar list
   rule ``apply_scalar`` and the numpy windows ``apply_windows``) must
   equal the per-tick reference loop node for node — exercised on
   adversarial graphs where collisions are the common case (star hub,
   3-ring) for every footprint protocol, with and without a frozen
   fault mask, and for a footprint protocol without ``tick_values``
   (which takes the scalar rule on every block).
3. *Law*: ``SequentialEngine`` and ``ContinuousEngine``, whose blocks
   run through the hazard path, draw convergence times from the same
   distribution as the same engines driving one Python ``seq_tick`` per
   node (KS permutation tests) for Voter / Two-Choices / 3-Majority /
   Undecided-State on ring, torus and random-regular.
4. *Plumbing*: the per-tick engines on sparse graphs (routing, budgets,
   trace and check cadences) and the construction fast paths
   (``sample_neighbors_block``, ``from_csr``, networkx import).
"""

import numpy as np
import pytest

from repro.analysis.statistics import ks_permutation_test
from repro.core.colors import ColorConfiguration
from repro.core.exceptions import ConfigurationError, TopologyError
from repro.core.hazard import (
    SCALAR_RUN_BREAK_EVEN,
    HazardScratch,
    apply_hazard_free,
    apply_scalar,
    apply_windows,
)
from repro.engine import ContinuousEngine, SequentialEngine, fastest_engine
from repro.graphs.complete import CompleteGraph
from repro.graphs.families import hypercube, random_regular, star
from repro.graphs.sparse import AdjacencyTopology, ring, torus
from repro.protocols.async_plurality import AsyncPluralityProtocol
from repro.protocols.base import SequentialProtocol, TickFootprint
from repro.protocols.faults import StubbornProtocol
from repro.protocols.lossy import LossyProtocol
from repro.protocols.three_majority import ThreeMajoritySequential
from repro.protocols.two_choices import TwoChoicesSequential
from repro.protocols.undecided_state import UndecidedStateSequential
from repro.protocols.voter import VoterSequential

FOOTPRINT_PROTOCOLS = [
    TwoChoicesSequential,
    VoterSequential,
    ThreeMajoritySequential,
    UndecidedStateSequential,
]


def _reads(nodes, targets):
    nodes = np.asarray(nodes, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    return np.concatenate([nodes[:, None], targets], axis=1)


def _all_write(reads):
    """The write mask under which every tick counts as a writer."""
    return np.ones(reads.shape[0], dtype=bool)


def _conservative_prefix(scratch, nodes, targets):
    reads = _reads(nodes, targets)
    return scratch.prefix_length(reads, _all_write(reads))


class TestHazardScratchUnit:
    def test_read_of_earlier_write_cuts(self):
        scratch = HazardScratch(10)
        # tick 2 reads node 0, written by tick 0.
        assert _conservative_prefix(scratch, [0, 1, 2], [[1], [2], [0]]) == 2

    def test_duplicate_initiator_cuts(self):
        scratch = HazardScratch(10)
        assert _conservative_prefix(scratch, [5, 5], [[1], [2]]) == 1

    def test_clean_block_passes_whole(self):
        scratch = HazardScratch(10)
        assert _conservative_prefix(scratch, [0, 1, 2], [[3], [4], [5]]) == 3

    def test_stale_epoch_is_ignored(self):
        scratch = HazardScratch(10)
        assert _conservative_prefix(scratch, [0], [[1]]) == 1
        # Node 0's stamp is from the previous call: not a hazard now.
        assert _conservative_prefix(scratch, [1, 2], [[0], [0]]) == 2

    def test_write_mask_limits_hazards(self):
        scratch = HazardScratch(10)
        reads = _reads([0, 1, 2], [[2], [3], [0]])
        # Conservatively tick 2's read of node 0 is a hazard ...
        assert scratch.prefix_length(reads, _all_write(reads)) == 2
        # ... but not when tick 0 did not actually write.
        wrote = np.array([False, True, True])
        assert scratch.prefix_length(reads, wrote) == 3

    def test_non_writing_duplicate_initiators_pass(self):
        scratch = HazardScratch(10)
        reads = _reads([5, 5], [[1], [2]])
        wrote = np.array([False, False])
        assert scratch.prefix_length(reads, wrote) == 2

    def test_first_tick_never_hazardous(self):
        scratch = HazardScratch(4)
        assert _conservative_prefix(scratch, [1], [[1]]) == 1


class _ConservativeVoter(VoterSequential):
    """Footprint but no vectorised value rule: the scalar rule on every block."""

    tick_values = None


ADVERSARIAL_TOPOLOGIES = [
    ("star", lambda: star(12)),
    ("ring3", lambda: ring(3)),
    ("torus3x3", lambda: torus(3, 3)),
    ("torus10x10", lambda: torus(10, 10)),
]


class TestBitExactPinning:
    """Same presampled draws => identical states, vectorised vs loop."""

    @pytest.mark.parametrize("proto_cls", FOOTPRINT_PROTOCOLS + [_ConservativeVoter])
    @pytest.mark.parametrize("topo_name,topo_factory", ADVERSARIAL_TOPOLOGIES)
    def test_apply_hazard_free_matches_reference_loop(self, proto_cls, topo_name, topo_factory):
        protocol = proto_cls()
        topology = topo_factory()
        n = topology.n
        rng = np.random.default_rng(42)
        colors = rng.integers(0, 3, size=n)
        state_batch = protocol.make_state(colors.copy(), 3)
        state_loop = protocol.make_state(colors.copy(), 3)
        nodes = rng.integers(0, n, size=900)
        targets = topology.sample_neighbors_block(nodes, protocol.tick_footprint.samples, rng)
        cuts = apply_hazard_free(protocol, state_batch, nodes, targets)
        assert cuts >= 0
        for i in range(len(nodes)):
            protocol.tick_apply(state_loop, int(nodes[i]), state_loop.colors[targets[i]])
        assert np.array_equal(state_batch.colors, state_loop.colors)

    @pytest.mark.parametrize("proto_cls", FOOTPRINT_PROTOCOLS)
    @pytest.mark.parametrize("topo_name,topo_factory", ADVERSARIAL_TOPOLOGIES)
    @pytest.mark.parametrize("faulted", [False, True], ids=["plain", "stubborn"])
    @pytest.mark.parametrize("realisation", [apply_scalar, apply_windows])
    def test_each_realisation_matches_reference_loop(self, realisation, faulted, proto_cls, topo_name, topo_factory):
        protocol = proto_cls()
        if faulted:
            protocol = StubbornProtocol(protocol, 0.34, fault_seed=5)
        topology = topo_factory()
        n = topology.n
        rng = np.random.default_rng(43)
        colors = rng.permutation(np.arange(n) % 3)
        state_block = protocol.make_state(colors.copy(), 3)
        state_loop = protocol.make_state(colors.copy(), 3)
        assert (getattr(state_block, "frozen", None) is not None) == faulted
        if faulted:
            assert state_block.frozen.any()
        before = state_block.colors.copy()
        for _ in range(3):
            nodes = rng.integers(0, n, size=300)
            targets = topology.sample_neighbors_block(nodes, protocol.tick_footprint.samples, rng)
            realisation(protocol, state_block, nodes, targets, HazardScratch.for_state(state_block))
            for i in range(len(nodes)):
                protocol.tick_apply(state_loop, int(nodes[i]), state_loop.colors[targets[i]])
            assert np.array_equal(state_block.colors, state_loop.colors)
        assert not np.array_equal(state_block.colors, before)
        if faulted:
            frozen = state_block.frozen
            assert np.array_equal(state_block.colors[frozen], before[frozen])

    def test_scalar_rule_matches_vectorised_values(self):
        # tick_rule and tick_values are independent twins of one rule:
        # every (own, observed) combination over three colours gives
        # the same post-tick colour.
        import itertools

        for proto_cls in FOOTPRINT_PROTOCOLS:
            protocol = proto_cls()
            samples = protocol.tick_footprint.samples
            combos = np.array(list(itertools.product(range(3), repeat=1 + samples)), dtype=np.int64)
            state = protocol.make_state(np.zeros(1 + samples, dtype=np.int64), 3)
            vectorised = protocol.tick_values(state, combos[:, 0], combos[:, 1:])
            for row, expected in zip(combos.tolist(), vectorised.tolist()):
                live = list(row)
                written = protocol.tick_rule(state, live, [0], [[j] for j in range(1, 1 + samples)])
                assert live[0] == expected, (proto_cls.__name__, row)
                assert written == ([0] if expected != row[0] else [])

    def test_hazard_free_picks_scalar_for_short_predicted_runs(self):
        protocol = VoterSequential()
        topology = torus(10, 10)
        rng = np.random.default_rng(3)
        state = protocol.make_state(rng.integers(0, 3, size=topology.n), 3)
        scratch = HazardScratch.for_state(state)
        # Dense writes predict runs far below the break-even: scalar.
        scratch.write_fraction = 1.0
        assert scratch.prefers_scalar(1)
        # No writes on the last block predict an unbounded run: numpy.
        scratch.write_fraction = 0.0
        assert not scratch.prefers_scalar(1)
        big = HazardScratch(SCALAR_RUN_BREAK_EVEN ** 2 * 4)
        assert not big.prefers_scalar(1)
        nodes = rng.integers(0, topology.n, size=200)
        targets = topology.sample_neighbors_block(nodes, 1, rng)
        scratch.write_fraction = 1.0
        apply_hazard_free(protocol, state, nodes, targets, kernel=None)
        assert 0.0 < scratch.write_fraction <= 1.0

    def test_protocol_without_value_rule_takes_scalar_rule(self):
        # A sparse write history predicts numpy windows, but those need
        # tick_values; the block must go through the scalar rule.
        protocol = _ConservativeVoter()
        topology = torus(10, 10)
        rng = np.random.default_rng(5)
        colors = rng.integers(0, 3, size=topology.n)
        state = protocol.make_state(colors.copy(), 3)
        reference = protocol.make_state(colors.copy(), 3)
        scratch = HazardScratch.for_state(state)
        scratch.write_fraction = 0.0
        assert not scratch.prefers_scalar(1)
        nodes = rng.integers(0, topology.n, size=500)
        targets = topology.sample_neighbors_block(nodes, 1, rng)
        assert apply_hazard_free(protocol, state, nodes, targets, kernel=None) == 0
        assert scratch.write_fraction > 0.0
        for i in range(len(nodes)):
            protocol.tick_apply(reference, int(nodes[i]), reference.colors[targets[i]])
        assert np.array_equal(state.colors, reference.colors)

    def test_actual_write_tracking_avoids_cuts(self):
        # The optimistic windows see through no-op ticks: voter on a
        # star agrees with the hub quickly, after which almost nothing
        # actually writes and chunks span nearly the whole block.
        # Called directly: apply_hazard_free would run this dense block
        # through the scalar rule, which never cuts.
        protocol = VoterSequential()
        topology = star(8)
        rng = np.random.default_rng(0)
        state = protocol.make_state(rng.integers(0, 2, size=8), 2)
        nodes = rng.integers(0, 8, size=256)
        targets = topology.sample_neighbors_block(nodes, 1, rng)
        cuts = apply_windows(protocol, state, nodes, targets)
        assert 0 < cuts < 10

    def test_scratch_reuse_across_blocks(self):
        protocol = VoterSequential()
        topology = star(30)
        rng = np.random.default_rng(7)
        state_batch = protocol.make_state(rng.integers(0, 2, size=30), 2)
        state_loop = protocol.make_state(state_batch.colors.copy(), 2)
        scratch = HazardScratch(30)
        for _ in range(40):
            nodes = rng.integers(0, 30, size=64)
            targets = topology.sample_neighbors_block(nodes, 1, rng)
            apply_hazard_free(protocol, state_batch, nodes, targets, scratch)
            for i in range(len(nodes)):
                protocol.tick_apply(state_loop, int(nodes[i]), state_loop.colors[targets[i]])
            assert np.array_equal(state_batch.colors, state_loop.colors)


class TestFootprints:
    def test_declared_footprints(self):
        assert TwoChoicesSequential.tick_footprint == TickFootprint(samples=2, reads_own=False)
        assert VoterSequential.tick_footprint == TickFootprint(samples=1, reads_own=False)
        assert ThreeMajoritySequential.tick_footprint == TickFootprint(samples=3, reads_own=False)
        assert UndecidedStateSequential.tick_footprint == TickFootprint(samples=1, reads_own=True)

    def test_complex_protocols_stay_undeclared(self):
        assert AsyncPluralityProtocol.tick_footprint is None
        assert LossyProtocol.tick_footprint is None
        assert SequentialProtocol.tick_footprint is None

    def test_batch_hook_matches_loop_in_law(self):
        # seq_tick_batch (hazard path) vs the reference loop consume
        # the generator differently, so compare the tick law, not the
        # stream: mean majority count after a fixed tick block.
        protocol = TwoChoicesSequential()
        topology = torus(6, 6)
        n = topology.n
        labels = np.array([0] * 22 + [1] * 14)
        batch_majority, loop_majority = [], []
        rng_batch = np.random.default_rng(1)
        rng_loop = np.random.default_rng(2)
        for trial in range(300):
            nodes = np.random.default_rng(5000 + trial).integers(0, n, size=120)
            state = protocol.make_state(labels.copy(), 2)
            protocol.seq_tick_batch(state, nodes, topology, rng_batch)
            batch_majority.append(int(state.counts()[0]))
            state = protocol.make_state(labels.copy(), 2)
            protocol.seq_tick_batch_loop(state, nodes, topology, rng_loop)
            loop_majority.append(int(state.counts()[0]))
        sem = np.sqrt((np.var(batch_majority) + np.var(loop_majority)) / 300)
        assert abs(np.mean(batch_majority) - np.mean(loop_majority)) < 4 * sem + 1e-9


def _per_tick(proto_cls):
    """*proto_cls* driving one Python ``seq_tick`` per node (the seed loop)."""
    return type(
        f"PerTick{proto_cls.__name__}",
        (proto_cls,),
        {"seq_tick_batch": SequentialProtocol.seq_tick_batch_loop},
    )


KS_PROTOCOLS = [
    ("two-choices", TwoChoicesSequential, 6 * 24**2),
    ("voter", VoterSequential, 6 * 24**2),
    ("three-majority", ThreeMajoritySequential, 6 * 24**2),
]
KS_TOPOLOGIES = [
    ("ring", lambda: ring(24)),
    ("torus", lambda: torus(5, 5)),
    ("random-regular", lambda: random_regular(24, 4, seed=11)),
]


class TestCrossEngineLaw:
    """Hazard-batched blocks vs the per-tick loop: same convergence-time law."""

    @pytest.mark.parametrize("proto_name,proto_cls,per_n_budget", KS_PROTOCOLS)
    @pytest.mark.parametrize("topo_name,topo_factory", KS_TOPOLOGIES)
    def test_sparse_sequential_matches_sequential(
        self, proto_name, proto_cls, per_n_budget, topo_name, topo_factory
    ):
        topology = topo_factory()
        n = topology.n
        config = ColorConfiguration([int(0.7 * n), n - int(0.7 * n)])
        max_ticks = per_n_budget * n
        trials = 40
        reference = SequentialEngine(_per_tick(proto_cls)(), topology)
        batched = SequentialEngine(proto_cls(), topology)
        ref_rounds, batched_rounds = [], []
        for trial in range(trials):
            ref = reference.run(config, seed=1000 + trial, max_ticks=max_ticks)
            bat = batched.run(config, seed=9000 + trial, max_ticks=max_ticks)
            assert ref.converged and bat.converged, (proto_name, topo_name, trial)
            ref_rounds.append(ref.rounds)
            batched_rounds.append(bat.rounds)
        stat, p_value = ks_permutation_test(ref_rounds, batched_rounds, seed=5)
        assert p_value > 0.01, (proto_name, topo_name, stat, p_value)

    def test_sparse_matches_true_per_tick_loop(self):
        # Two-Choices on a small ring, where blocks cut often.
        topology = ring(16)
        config = ColorConfiguration([11, 5])
        reference = SequentialEngine(_per_tick(TwoChoicesSequential)(), topology)
        batched = SequentialEngine(TwoChoicesSequential(), topology)
        max_ticks = 16**3 * 40
        ref_rounds, batched_rounds = [], []
        for trial in range(40):
            ref = reference.run(config, seed=300 + trial, max_ticks=max_ticks)
            bat = batched.run(config, seed=7300 + trial, max_ticks=max_ticks)
            assert ref.converged and bat.converged
            ref_rounds.append(ref.rounds)
            batched_rounds.append(bat.rounds)
        stat, p_value = ks_permutation_test(ref_rounds, batched_rounds, seed=5)
        assert p_value > 0.01, (stat, p_value)

    def test_sparse_continuous_matches_continuous(self):
        topology = torus(5, 5)
        config = ColorConfiguration([18, 7])
        reference = ContinuousEngine(_per_tick(TwoChoicesSequential)(), topology)
        batched = ContinuousEngine(TwoChoicesSequential(), topology)
        ref_times, batched_times = [], []
        for trial in range(40):
            ref = reference.run(config, seed=100 + trial, max_time=4000.0)
            bat = batched.run(config, seed=8100 + trial, max_time=4000.0)
            assert ref.converged and bat.converged
            ref_times.append(ref.parallel_time)
            batched_times.append(bat.parallel_time)
        stat, p_value = ks_permutation_test(ref_times, batched_times, seed=5)
        assert p_value > 0.01, (stat, p_value)

    def test_undecided_state_law_on_torus(self):
        topology = torus(5, 5)
        n = topology.n
        config = ColorConfiguration([17, 8])
        reference = SequentialEngine(_per_tick(UndecidedStateSequential)(), topology)
        batched = SequentialEngine(UndecidedStateSequential(), topology)
        max_ticks = 4000 * n
        ref_rounds, batched_rounds = [], []
        for trial in range(40):
            ref = reference.run(config, seed=500 + trial, max_ticks=max_ticks)
            bat = batched.run(config, seed=6500 + trial, max_ticks=max_ticks)
            assert ref.converged and bat.converged
            ref_rounds.append(ref.rounds)
            batched_rounds.append(bat.rounds)
        stat, p_value = ks_permutation_test(ref_rounds, batched_rounds, seed=5)
        assert p_value > 0.01, (stat, p_value)


class TestEnginePlumbing:
    def test_rejects_size_mismatch(self):
        engine = SequentialEngine(VoterSequential(), ring(16))
        with pytest.raises(ConfigurationError, match="16"):
            engine.run(ColorConfiguration([5, 5]), seed=0)

    def test_tick_budget_and_parallel_time_grid(self):
        engine = SequentialEngine(VoterSequential(), ring(32))
        result = engine.run(
            ColorConfiguration([16, 16]), max_ticks=1000, stop=lambda counts: False, seed=3
        )
        assert result.rounds == 1000
        assert result.parallel_time == 1000 / 32
        assert not result.converged

    def test_convergence_lands_on_check_grid(self):
        engine = SequentialEngine(TwoChoicesSequential(), torus(5, 5))
        result = engine.run(ColorConfiguration([20, 5]), seed=2, max_ticks=25 * 20000)
        assert result.converged
        # Stop conditions fire on the check_every (= n) cadence, unless
        # absorption ended the run earlier.
        assert result.rounds % 25 == 0

    def test_continuous_respects_max_time(self):
        engine = ContinuousEngine(VoterSequential(), ring(64))
        result = engine.run(
            ColorConfiguration([32, 32]), max_time=2.5, stop=lambda counts: False, seed=4
        )
        assert result.parallel_time <= 2.5
        assert not result.converged

    def test_trace_cadence(self):
        engine = SequentialEngine(VoterSequential(), ring(50))
        result = engine.run(
            ColorConfiguration([25, 25]),
            max_ticks=50 * 10,
            stop=lambda counts: False,
            record_trace=True,
            trace_every_parallel=1.0,
            seed=5,
        )
        assert len(result.trace) >= 10

    def test_continuous_trace_cadence_with_large_check_every(self):
        engine = ContinuousEngine(TwoChoicesSequential(), torus(8, 8))
        result = engine.run(
            ColorConfiguration([40, 24]),
            seed=5,
            record_trace=True,
            trace_every=1.0,
            check_every=10**9,
            max_time=6.0,
        )
        assert len(result.trace) >= 5

    def test_metadata_names_engine(self):
        seq = SequentialEngine(VoterSequential(), ring(16)).run(
            ColorConfiguration([10, 6]), seed=0, max_ticks=400
        )
        assert seq.metadata["engine"] == "sequential"
        cont = ContinuousEngine(VoterSequential(), ring(16)).run(
            ColorConfiguration([10, 6]), seed=0, max_time=30.0
        )
        assert cont.metadata["engine"] == "continuous"


class TestSamplingBlocks:
    def test_block_matches_neighbor_sets(self):
        for topology in (ring(12), star(9), torus(4, 4), hypercube(4)):
            rng = np.random.default_rng(3)
            nodes = rng.integers(0, topology.n, size=500)
            block = topology.sample_neighbors_block(nodes, 3, rng)
            assert block.shape == (500, 3)
            for i in range(0, 500, 97):
                neighbors = set(int(v) for v in topology.neighbors_of(int(nodes[i])))
                assert set(int(v) for v in block[i]) <= neighbors

    def test_uniform_degree_detection(self):
        assert ring(10)._uniform_degree == 2
        assert torus(4, 5)._uniform_degree == 4
        assert star(5)._uniform_degree is None

    def test_block_uniformity_on_regular_and_irregular(self):
        # Chi-square-ish sanity: each neighbour appears ~uniformly.
        for topology in (ring(6), star(6)):
            rng = np.random.default_rng(9)
            nodes = np.full(20000, 0, dtype=np.int64)
            block = topology.sample_neighbors_block(nodes, 1, rng)
            _, counts = np.unique(block, return_counts=True)
            expected = 20000 / topology.degree(0)
            assert np.all(np.abs(counts - expected) < 6 * np.sqrt(expected))

    def test_complete_graph_block_excludes_self(self):
        graph = CompleteGraph(7)
        rng = np.random.default_rng(1)
        nodes = rng.integers(0, 7, size=1000)
        block = graph.sample_neighbors_block(nodes, 2, rng)
        assert (block != nodes[:, None]).all()
        assert block.min() >= 0 and block.max() < 7


class TestFromCSR:
    def test_round_trip_matches_list_construction(self):
        reference = torus(4, 6)
        rebuilt = AdjacencyTopology.from_csr(reference._offsets, reference._flat)
        assert rebuilt.n == reference.n
        for node in range(reference.n):
            assert np.array_equal(rebuilt.neighbors_of(node), reference.neighbors_of(node))
        assert rebuilt._uniform_degree == reference._uniform_degree

    def test_rejects_isolated_node(self):
        with pytest.raises(TopologyError, match="isolated"):
            AdjacencyTopology.from_csr(np.array([0, 1, 1, 2]), np.array([1, 0]))

    def test_rejects_bad_offsets(self):
        with pytest.raises(TopologyError, match="offsets"):
            AdjacencyTopology.from_csr(np.array([1, 2, 3]), np.array([0, 1, 0]))

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(TopologyError, match="outside|neighbour"):
            AdjacencyTopology.from_csr(np.array([0, 1, 2]), np.array([5, 0]))

    def test_rejects_single_node(self):
        with pytest.raises(TopologyError, match="2 nodes"):
            AdjacencyTopology.from_csr(np.array([0, 1]), np.array([0]))


class TestNetworkxAdapter:
    def test_from_networkx_builds_csr(self):
        nx = pytest.importorskip("networkx")
        from repro.graphs.nx_adapter import from_networkx

        graph = nx.cycle_graph(9)
        topology = from_networkx(graph)
        reference = ring(9)
        assert topology.n == 9
        for node in range(9):
            assert set(topology.neighbors_of(node).tolist()) == set(
                reference.neighbors_of(node).tolist()
            )
        # CSR construction implies the vectorised block sampler.
        rng = np.random.default_rng(0)
        block = topology.sample_neighbors_block(np.arange(9), 2, rng)
        assert block.shape == (9, 2)

    def test_from_networkx_rejects_isolated(self):
        nx = pytest.importorskip("networkx")
        from repro.graphs.nx_adapter import from_networkx

        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_node(2)
        with pytest.raises(TopologyError, match="isolated"):
            from_networkx(graph)

    def test_from_networkx_rejects_directed(self):
        nx = pytest.importorskip("networkx")
        from repro.graphs.nx_adapter import from_networkx

        with pytest.raises(TopologyError, match="undirected"):
            from_networkx(nx.DiGraph([(0, 1)]))


class TestDispatchIntegration:
    def test_simulate_routes_sparse_and_runs(self):
        from repro.api import SimulationSpec, simulate

        spec = SimulationSpec(
            protocol="two-choices",
            n=64,
            topology="torus",
            model="sequential",
            initial="two-colors",
            initial_params={"gap": 24},
            reps=3,
            seed=11,
            max_steps=64 * 4000,
        )
        sim = simulate(spec)
        # Sparse sequential specs run on SequentialEngine at every n
        # (routing table: tests/test_dispatch_routing.py).
        assert sim.engine == "SequentialEngine"
        assert sim.reps == 3
        assert all(run.converged for run in sim.runs)

    def test_fastest_engine_zero_delay_continuous(self):
        from repro.engine.delays import FixedDelay

        engine = fastest_engine(
            VoterSequential(), ring(32), model="continuous", delay_model=FixedDelay(0.0)
        )
        assert type(engine) is ContinuousEngine
