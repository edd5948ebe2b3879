"""The async-plurality tick interface and block path
(``AsyncPluralityProtocol.seq_tick_batch``).

The guarantees:

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
4. *The trace*: each trace point's terminated count is exact, and a
   run without a firing stop ends at the first check after the last
   termination.
5. *One storage*: blocks, single ticks and copies interleaved on one
   state leave every field, ``counts()`` and the absorption check
   equal to a per-tick run.
6. *Two engines, one law*: ``SequentialEngine`` and the zero-delay
   ``ContinuousEngine`` agree in success rate and consensus time, and
   the delayed event-queue path converges.
7. *Engine hooks*: both tick engines store ``trace_fields`` on every
   trace point (``None`` without the hook) and size an unbudgeted run
   by the protocol's ``default_budget``.
"""

import numpy as np
import pytest

from repro.analysis.statistics import ks_permutation_test
from repro.core.colors import ColorConfiguration, assignment_from_counts
from repro.core.rng import as_generator
from repro.engine.continuous import ContinuousEngine
from repro.engine.delays import ExponentialDelay
from repro.engine.sequential import SequentialEngine
from repro.graphs.complete import CompleteGraph
from repro.graphs.sparse import torus
from repro.protocols.async_plurality import AsyncPluralityProtocol, apply_tick_block
from repro.protocols.base import SequentialProtocol
from repro.protocols.voter import VoterSequential
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


class TestTraceTermination:
    def test_terminated_counts_are_exact(self):
        # Replay the engine's stream (initial assignment, then one block
        # of n actors and their neighbour pairs per check) one tick at a
        # time, noting the terminated count at every block end.
        n, seed = 60, 4
        config = multiplicative_bias(n, 3, 2.0)
        result = SequentialEngine(AsyncPluralityProtocol(), CompleteGraph(n)).run(
            config, seed=seed, stop=lambda counts: False, record_trace=True
        )

        rng = as_generator(seed)
        protocol = AsyncPluralityProtocol()
        state = protocol.make_state(assignment_from_counts(config, rng=rng), config.k)
        lists = [getattr(state, name).tolist() for name in FIELDS]
        counts = state.counts().tolist()
        graph = CompleteGraph(n)
        ticks, alive, terminated_at = 0, n, [0]
        while alive:
            drawn = rng.integers(0, n, size=n)
            pairs = graph.sample_neighbors_block(drawn, 2, rng)
            for u, v1, v2 in zip(drawn.tolist(), pairs[:, 0].tolist(), pairs[:, 1].tolist()):
                alive -= len(apply_tick_block(state.schedule, [u], [v1], [v2], counts, state.buffers, *lists))
            ticks += n
            terminated_at.append(n - alive)
        points = result.trace.points
        # One point per block, plus the closing point at the same tick.
        assert [p.fields["terminated"] for p in points[:-1]] == terminated_at
        assert points[-1].fields == {"terminated": n}
        assert result.rounds == ticks and not result.converged
        assert list(result.final.counts) == counts

    def test_spread_fields_while_nodes_are_active(self):
        n = 80
        result = SequentialEngine(AsyncPluralityProtocol(), CompleteGraph(n)).run(
            multiplicative_bias(n, 3, 2.0), seed=2, record_trace=True, max_ticks=20 * n
        )
        start, mid = result.trace.points[0], result.trace.points[10]
        assert start.fields["terminated"] == 0 and start.fields["spread"] == 0
        assert {"spread", "spread_core", "poor_fraction", "poor_fraction_2x", "poor_fraction_4x"} <= set(mid.fields)
        assert mid.fields["spread"] >= mid.fields["spread_core"] > 0


class TestAdapterMechanics:
    def test_make_state_attaches_schedule(self):
        protocol = AsyncPluralityProtocol()
        state = protocol.make_state(np.array([0, 1, 0, 1]), k=2)
        assert state.schedule.n == 4
        assert len(state.buffers) == 4

    def test_tick_targets_for_tc_sample(self, rng):
        protocol = AsyncPluralityProtocol()
        graph = CompleteGraph(10)
        state = protocol.make_state(np.zeros(10, dtype=np.int64), k=2)
        # working time 0 is the first phase's TC sample slot
        assert state.schedule.action_at(0) == ACTION_TC_SAMPLE
        targets = protocol.tick_targets(state, 3, graph, rng)
        assert len(targets) == 2

    def test_tick_apply_advances_clocks(self, rng):
        protocol = AsyncPluralityProtocol()
        graph = CompleteGraph(10)
        state = protocol.make_state(np.zeros(10, dtype=np.int64), k=2)
        targets = protocol.tick_targets(state, 0, graph, rng)
        protocol.tick_apply(state, 0, state.colors[targets])
        assert state.working_time[0] == 1
        assert state.real_time[0] == 1

    def test_unanimous_tc_sets_intermediate_then_commit_sets_bit(self, rng):
        protocol = AsyncPluralityProtocol()
        graph = CompleteGraph(10)
        state = protocol.make_state(np.zeros(10, dtype=np.int64), k=2)
        node = 0
        # drive node 0 through the schedule until just past the commit slot
        commit_slot = 2 * state.schedule.delta
        for _ in range(commit_slot + 1):
            targets = protocol.tick_targets(state, node, graph, rng)
            observed = state.colors[targets] if len(targets) else np.empty(0, dtype=np.int64)
            protocol.tick_apply(state, node, observed)
        assert state.bit[node]  # unanimous population: samples always agree

    def test_terminated_node_ignores_ticks(self, rng):
        protocol = AsyncPluralityProtocol()
        graph = CompleteGraph(10)
        state = protocol.make_state(np.zeros(10, dtype=np.int64), k=2)
        state.terminated[0] = True
        targets = protocol.tick_targets(state, 0, graph, rng)
        assert len(targets) == 0
        protocol.tick_apply(state, 0, np.empty(0, dtype=np.int64))
        assert state.working_time[0] == 0

    def test_is_absorbed_when_all_terminated(self):
        protocol = AsyncPluralityProtocol()
        state = protocol.make_state(np.zeros(4, dtype=np.int64), k=2)
        assert not protocol.is_absorbed(state)
        state.terminated[:] = True
        assert protocol.is_absorbed(state)


class TestEngineAgreement:
    def test_sequential_and_continuous_agree(self):
        """The sequential and zero-delay continuous engines run the same
        block rule under two clock models; their success rates and
        consensus times agree within loose bounds on a small instance."""
        n = 150
        config = multiplicative_bias(n, 4, 2.0)
        trials = 5
        sequential = SequentialEngine(AsyncPluralityProtocol(), CompleteGraph(n))
        continuous = ContinuousEngine(AsyncPluralityProtocol(), CompleteGraph(n))
        seq = [sequential.run(config, seed=seed) for seed in range(trials)]
        cont = [continuous.run(config, seed=seed + 1000) for seed in range(trials)]
        for runs in (seq, cont):
            assert sum(r.converged and r.winner == 0 for r in runs) >= trials - 1
        seq_mean = np.mean([r.parallel_time for r in seq])
        cont_mean = np.mean([r.parallel_time for r in cont])
        assert seq_mean < 1.6 * cont_mean + 5
        assert cont_mean < 1.6 * seq_mean + 5

    def test_continuous_engine_with_delays_converges(self):
        n = 150
        config = multiplicative_bias(n, 4, 2.0)
        protocol = AsyncPluralityProtocol()
        engine = ContinuousEngine(protocol, CompleteGraph(n), delay_model=ExponentialDelay(2.0))
        schedule = protocol.params.compile(n)
        result = engine.run(config, seed=6, max_time=5.0 * schedule.total_length)
        assert result.converged
        assert result.winner == 0


class TestDefaultBudget:
    def test_generic_budget_is_fifty_log_n(self):
        from repro.protocols.two_choices import TwoChoicesSequential

        assert TwoChoicesSequential().default_budget(196) == pytest.approx(50 * np.log(196))

    @pytest.mark.parametrize("n", [196, 1024])
    def test_async_budget_covers_the_schedule(self, n):
        # 50 ln n is shorter than the schedule itself at these n
        # (263.9 vs 263 own ticks at n=196, 346.6 vs 386 at n=1024).
        protocol = AsyncPluralityProtocol()
        total = protocol.params.compile(n).total_length
        assert protocol.default_budget(n) >= 1.5 * total

    def test_loss_wrapper_keeps_the_schedule_budget(self):
        from repro.protocols.lossy import LossyProtocol

        inner = AsyncPluralityProtocol()
        assert LossyProtocol(inner, 0.1).default_budget(196) == inner.default_budget(196)

    def test_unconverged_torus_run_ends_by_absorption(self):
        from repro.api import SimulationSpec, simulate

        spec = SimulationSpec(protocol="async-plurality", n=196, topology="torus", seed=37,
                              initial="multiplicative-bias", initial_params={"k": 4, "ratio": 2.0})
        run = simulate(spec).runs[0]
        assert not run.converged
        assert run.rounds < int(AsyncPluralityProtocol().default_budget(196) * 196)
        assert run.rounds % 196 == 0  # stopped on a check boundary, not the budget


class _ShortBudgetVoter(VoterSequential):
    """Voter with a two-unit default budget, far short of consensus."""

    def default_budget(self, n):
        return 2.0


class TestEngineHooks:
    """The tick engines consult ``trace_fields`` and ``default_budget``."""

    def test_protocol_without_hook_records_counts_only(self):
        result = SequentialEngine(VoterSequential(), CompleteGraph(100)).run(
            ColorConfiguration([50, 50]), seed=1, max_ticks=500, record_trace=True
        )
        assert len(result.trace) > 1
        assert all(point.fields is None for point in result.trace)

    @pytest.mark.parametrize("delay", [None, ExponentialDelay(1.0)])
    def test_continuous_engine_records_trace_fields(self, delay):
        n = 100
        engine = ContinuousEngine(AsyncPluralityProtocol(), CompleteGraph(n), delay_model=delay)
        result = engine.run(multiplicative_bias(n, 4, 2.0), seed=4, max_time=20.0, record_trace=True)
        assert all(point.fields is not None for point in result.trace)
        assert result.trace.points[0].fields["terminated"] == 0
        assert "spread" in result.trace.points[-1].fields

    def test_sequential_engine_uses_the_protocol_budget(self):
        result = SequentialEngine(_ShortBudgetVoter(), CompleteGraph(100)).run(ColorConfiguration([50, 50]), seed=2)
        assert not result.converged
        assert result.rounds == 200
        assert result.parallel_time == 2.0

    def test_continuous_engine_uses_the_protocol_budget(self):
        result = ContinuousEngine(_ShortBudgetVoter(), CompleteGraph(100)).run(ColorConfiguration([50, 50]), seed=2)
        assert not result.converged
        assert result.parallel_time == 2.0

    def test_explicit_budget_overrides_the_protocol_budget(self):
        result = SequentialEngine(_ShortBudgetVoter(), CompleteGraph(100)).run(
            ColorConfiguration([50, 50]), seed=2, max_ticks=300
        )
        assert result.rounds == 300


class TestDelayedPathAbsorption:
    """The delayed continuous path ends a run once the protocol is
    absorbed, at the first stop check after that, as the instantaneous
    path does."""

    def test_terminated_torus_run_stops_before_its_budget(self):
        from repro.api import SimulationSpec, simulate

        spec = SimulationSpec(
            protocol="async-plurality", n=100, model="continuous", topology="torus", seed=38,
            delay="exponential", delay_params={"rate": 2.0},
            initial="multiplicative-bias", initial_params={"k": 4, "ratio": 2.0}, record_trace=True,
        )
        run = simulate(spec).runs[0]
        all_done = next(p.time for p in run.trace if p.fields["terminated"] == spec.n)
        # One stop check spans n events, well under one unit of time.
        assert all_done <= run.parallel_time <= all_done + 1.0
        assert run.parallel_time < AsyncPluralityProtocol().default_budget(spec.n)

    def test_consensus_ends_a_run_whose_stop_never_fires(self):
        engine = ContinuousEngine(VoterSequential(), CompleteGraph(30), delay_model=ExponentialDelay(2.0))
        result = engine.run(ColorConfiguration([15, 15]), seed=1, max_time=2000.0, stop=lambda counts: False)
        assert result.parallel_time < 2000.0
        assert sorted(result.final.counts) == [0, 30]
