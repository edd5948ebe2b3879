"""The async-plurality block path (``AsyncPluralityProtocol.seq_tick_batch``).

Three guarantees:

1. *Bit-exact*: on the same presampled ``(nodes, targets)`` the block
   rule leaves a state equal, field by field, to one ``seq_tick`` per
   node (``tick_targets`` + ``tick_apply``) fed from those draws —
   through all six schedule actions, the endgame, termination and
   ticks of terminated actors, on ``K_n`` and on a torus.
2. *Law*: ``SequentialEngine`` on the block path and on the per-tick
   reference loop (``seq_tick_batch_loop``) draw consensus times from
   the same distribution (KS permutation test).
3. *State copies*: a copied mid-run state ticks exactly like the
   original.
4. *The runner*: ``AsyncPluralityConsensus`` dates the first and the
   last termination to the exact tick, whatever its chunking.
5. *One storage*: blocks, single ticks and copies interleaved on one
   state leave every field, ``counts()`` and the absorption check
   equal to a per-tick run.
"""

import numpy as np
import pytest

from repro.analysis.statistics import ks_permutation_test
from repro.core.colors import assignment_from_counts
from repro.core.rng import as_generator
from repro.engine.sequential import SequentialEngine
from repro.graphs.complete import CompleteGraph
from repro.graphs.sparse import torus
from repro.protocols.async_plurality import (
    AsyncPluralityConsensus,
    AsyncPluralityProtocol,
    apply_tick_block,
)
from repro.protocols.base import SequentialProtocol
from repro.protocols.schedule import (
    ACTION_BP,
    ACTION_NOP,
    ACTION_SYNC_JUMP,
    ACTION_SYNC_SAMPLE,
    ACTION_TC_COMMIT,
    ACTION_TC_SAMPLE,
)
from repro.workloads.initial import multiplicative_bias

FIELDS = ("colors", "bit", "intermediate", "working_time", "real_time", "terminated")


class _Presampled:
    """Topology stand-in that hands out fixed draws.

    ``sample_neighbors_block`` returns the whole presampled matrix (the
    block path); ``sample_neighbors`` returns the leading *count*
    entries of the current row (the per-tick ``tick_targets`` path).
    """

    def __init__(self, targets):
        self.targets = targets
        self.row = None

    def sample_neighbors_block(self, nodes, count, rng):
        assert count == 2 and self.targets.shape == (len(nodes), 2)
        return self.targets

    def sample_neighbors(self, node, count, rng):
        return self.row[:count].copy()


def _assert_states_equal(a, b):
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    assert a.buffers == b.buffers
    assert a.pending_targets == b.pending_targets == {}


def _tick_kind(state, node):
    if state.terminated[node]:
        return "terminated"
    w = int(state.working_time[node])
    if w >= state.schedule.part_one_length:
        return "endgame"
    return state.schedule.action_at(w)


TOPOLOGIES = [("K_n", lambda: CompleteGraph(12)), ("torus", lambda: torus(4, 4))]


class TestBitIdentity:
    @pytest.mark.parametrize("name,factory", TOPOLOGIES, ids=[t[0] for t in TOPOLOGIES])
    def test_block_rule_equals_per_tick_loop(self, name, factory):
        topology = factory()
        n = topology.n
        protocol = AsyncPluralityProtocol(phases=2)
        rng = np.random.default_rng(7)
        colors = rng.integers(0, 3, size=n)
        block_state = protocol.make_state(colors.copy(), 3)
        loop_state = protocol.make_state(colors.copy(), 3)
        seen = set()
        terminations = 0
        # Run past the point where every node has terminated, in blocks
        # of uneven length, comparing the two states after every block.
        total_ticks = 3 * n * block_state.schedule.total_length
        ticks = 0
        while ticks < total_ticks:
            block = int(rng.integers(1, 80))
            nodes = rng.integers(0, n, size=block)
            targets = topology.sample_neighbors_block(nodes, 2, rng)
            stub = _Presampled(targets)
            protocol.seq_tick_batch(block_state, nodes, stub, None)
            for node, row in zip(nodes, targets):
                seen.add(_tick_kind(loop_state, int(node)))
                alive = not loop_state.terminated[node]
                stub.row = row
                protocol.seq_tick(loop_state, int(node), stub, None)
                terminations += int(alive and loop_state.terminated[node])
            _assert_states_equal(block_state, loop_state)
            ticks += block
        assert loop_state.terminated.all()
        assert terminations == n
        assert seen == {
            ACTION_NOP, ACTION_TC_SAMPLE, ACTION_TC_COMMIT, ACTION_BP,
            ACTION_SYNC_SAMPLE, ACTION_SYNC_JUMP, "endgame", "terminated",
        }

    def test_rule_reports_termination_offsets(self):
        n = 10
        protocol = AsyncPluralityProtocol(phases=1)
        state = protocol.make_state(np.zeros(n, dtype=np.int64), 1)
        schedule = state.schedule
        wt = [schedule.total_length - 1] * n  # every node one tick from the end
        wt[4] = 0
        lists = dict(colors=[0] * n, counts=[n], bit=[False] * n, inter=[-1] * n,
                     wt=wt, rt=[0] * n, terminated=[False] * n)
        nodes = [4, 2, 2, 7, 4, 2]
        ends = apply_tick_block(schedule, nodes, [0] * 6, [1] * 6, buffers=state.buffers, **lists)
        # Node 2 terminates at offset 1 (its tick at offset 2 is discarded),
        # node 7 at offset 3; node 4 is far from the endgame.
        assert ends == [1, 3]
        assert [nodes[i] for i in ends] == [2, 7]
        assert lists["terminated"] == [i in (2, 7) for i in range(n)]
        assert lists["rt"][2] == 1 and lists["rt"][4] == 2

    def test_rule_keeps_counts_in_step_with_colors(self):
        n = 12
        protocol = AsyncPluralityProtocol(phases=2)
        rng = np.random.default_rng(3)
        state = protocol.make_state(rng.integers(0, 4, size=n), 4)
        graph = CompleteGraph(n)
        counts = state.counts().tolist()
        lists = [getattr(state, name).tolist() for name in FIELDS]
        nodes = rng.integers(0, n, size=4 * n * state.schedule.total_length)
        targets = graph.sample_neighbors_block(nodes, 2, rng)
        apply_tick_block(state.schedule, nodes.tolist(), targets[:, 0].tolist(), targets[:, 1].tolist(),
                         counts, state.buffers, *lists)
        colors, terminated = lists[0], lists[-1]
        assert all(terminated)
        assert counts == np.bincount(colors, minlength=4).tolist()


def _per_tick(proto_cls):
    """*proto_cls* driving one Python ``seq_tick`` per node."""
    return type(
        f"PerTick{proto_cls.__name__}",
        (proto_cls,),
        {"seq_tick_batch": SequentialProtocol.seq_tick_batch_loop},
    )


class TestLaw:
    def test_block_path_matches_per_tick_loop(self):
        # Both paths stop at consensus or, when a node freezes a losing
        # colour (possible at this small n), once every node terminated;
        # the stop time is law-equal either way, so all runs count.
        n = 64
        config = multiplicative_bias(n, 3, 2.0)
        protocol = AsyncPluralityProtocol()
        max_ticks = 3 * n * protocol.params.compile(n).total_length
        reference = SequentialEngine(_per_tick(AsyncPluralityProtocol)(), CompleteGraph(n))
        batched = SequentialEngine(protocol, CompleteGraph(n))
        trials = 40
        ref = [reference.run(config, seed=2000 + t, max_ticks=max_ticks) for t in range(trials)]
        bat = [batched.run(config, seed=8000 + t, max_ticks=max_ticks) for t in range(trials)]
        assert all(r.rounds < max_ticks for r in ref + bat)
        stat, p_value = ks_permutation_test(
            [r.parallel_time for r in ref], [r.parallel_time for r in bat], seed=5
        )
        assert p_value > 0.01, (stat, p_value)


class TestStateCopy:
    @pytest.mark.parametrize("path", ["seq_tick", "seq_tick_batch"])
    def test_copy_mid_run_ticks_like_the_original(self, path):
        n = 30
        protocol = AsyncPluralityProtocol()
        graph = CompleteGraph(n)
        rng = np.random.default_rng(11)
        state = protocol.make_state(rng.integers(0, 3, size=n), 3)
        protocol.seq_tick_batch(state, rng.integers(0, n, size=40 * n), graph, rng)
        assert any(len(buffer) for buffer in state.buffers)
        clone = state.copy()
        _assert_states_equal(state, clone)
        nodes = rng.integers(0, n, size=20 * n)
        for target, seed in ((state, 5), (clone, 5)):
            draws = np.random.default_rng(seed)
            if path == "seq_tick":
                for node in nodes:
                    protocol.seq_tick(target, int(node), graph, draws)
            else:
                protocol.seq_tick_batch(target, nodes, graph, draws)
        _assert_states_equal(state, clone)
        assert state.buffers[0] is not clone.buffers[0]


def _assert_coherent(protocol, state, oracle, k):
    """*state* equals the per-tick *oracle*, and so do its aggregates."""
    for name in FIELDS:
        assert list(getattr(state, name)) == list(getattr(oracle, name)), name
    assert state.buffers == oracle.buffers
    assert state.counts().tolist() == np.bincount(list(oracle.colors), minlength=k).tolist()
    assert protocol.is_absorbed(state) == all(oracle.terminated)


class TestStateCoherence:
    def test_blocks_ticks_and_copies_interleave(self):
        n, k = 16, 6
        protocol = AsyncPluralityProtocol(phases=2)
        graph = CompleteGraph(n)
        rng = np.random.default_rng(21)
        colors = rng.integers(0, k, size=n)
        state = protocol.make_state(colors.copy(), k)
        oracle = protocol.make_state(colors.copy(), k)
        steps = set()
        while not oracle.terminated.all():
            step = ("block", "tick", "copy")[int(rng.integers(0, 3))]
            steps.add(step)
            if step == "copy":
                state = state.copy()
            else:
                nodes = rng.integers(0, n, size=int(rng.integers(1, 40)))
                targets = graph.sample_neighbors_block(nodes, 2, rng)
                stub = _Presampled(targets)
                if step == "block":
                    protocol.seq_tick_batch(state, nodes, stub, None)
                for node, row in zip(nodes, targets):
                    stub.row = row
                    protocol.seq_tick(oracle, int(node), stub, None)
                    if step == "tick":
                        protocol.seq_tick(state, int(node), stub, None)
                        _assert_coherent(protocol, state, oracle, k)
            _assert_coherent(protocol, state, oracle, k)
        assert steps == {"block", "tick", "copy"}
        assert protocol.is_absorbed(state)


class TestRunnerTermination:
    def test_termination_ticks_are_exact(self):
        # Replay the runner's stream (initial assignment, then batches
        # of 8192 actors and their neighbour pairs) one tick at a time.
        n, seed = 60, 4
        config = multiplicative_bias(n, 3, 2.0)
        result = AsyncPluralityConsensus().run(config, seed=seed, stop_at_consensus=False, record_spread=False)
        assert result.metadata["terminated_nodes"] == n

        rng = as_generator(seed)
        protocol = AsyncPluralityProtocol()
        state = protocol.make_state(assignment_from_counts(config, rng=rng), config.k)
        lists = [getattr(state, name).tolist() for name in FIELDS]
        counts = state.counts().tolist()
        graph = CompleteGraph(n)
        ticks, alive, first_end = 0, n, None
        while alive:
            drawn = rng.integers(0, n, size=8192)
            pairs = graph.sample_neighbors_block(drawn, 2, rng)
            for u, v1, v2 in zip(drawn.tolist(), pairs[:, 0].tolist(), pairs[:, 1].tolist()):
                ticks += 1
                if apply_tick_block(state.schedule, [u], [v1], [v2], counts, state.buffers, *lists):
                    alive -= 1
                    first_end = first_end or ticks
                    if not alive:
                        break
        assert result.metadata["first_termination_parallel_time"] * n == pytest.approx(first_end, abs=1e-6)
        assert result.rounds == ticks
        assert list(result.final.counts) == counts
