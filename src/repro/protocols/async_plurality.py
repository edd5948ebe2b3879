"""The asynchronous plurality-consensus protocol (Theorem 1.3).

This is the paper's main contribution: an adaptation of OneExtraBit to
the asynchronous (sequential / Poisson-clock) model that converges in
the optimal ``Theta(log n)`` parallel time for
``k = O(exp(log n / log log n))`` opinions and multiplicative bias
``c1 >= (1 + eps) ci``.

Structure (Section 3.1):

* **Part one** — ``Theta(log log n)`` phases, each made of a
  Two-Choices sub-phase (sample step + commit step separated by
  do-nothing blocks), a Bit-Propagation sub-phase, and a Sync-Gadget
  sub-phase (see :mod:`repro.protocols.sync_gadget`).  Nodes act
  according to their *working time*; the Sync Gadget perpetually pulls
  working times together so that all but ``o(n)`` nodes stay within
  ``Delta`` of one another.  Part one drives the plurality colour to
  ``c1 >= (1 - eps) n``.
* **Part two (endgame)** — plain asynchronous Two-Choices for
  ``Theta(log n)`` further ticks, after which a node freezes its
  colour.  Theorem-wise, all nodes hold ``C1`` before the first node
  terminates, w.h.p. (Section 3.2) — the run records both event times
  so experiment T9 can check exactly that.

One tick rule, two callers.  :func:`apply_tick_block` applies a block
of instantaneous ticks — each with a presampled actor and two
presampled neighbours — to plain-list state; both classes run it:

:class:`AsyncPluralityProtocol`
    The generic :class:`~repro.protocols.base.SequentialProtocol`
    form.  Its ``seq_tick_batch`` runs the rule per engine block
    directly on the lists of the :class:`~repro.core.state.AsyncNodeState`
    (which keeps them, the colour histogram and the live-node count for
    the whole run), so ``simulate()``,
    :class:`~repro.engine.sequential.SequentialEngine` and the
    zero-delay :class:`~repro.engine.continuous.ContinuousEngine` run
    the rule on any topology.  Its ``tick_targets`` / ``tick_apply``
    pair is the per-tick form, used by the continuous-time engine with
    response delays (experiment T12) and as the oracle the block path
    is tested against.
:class:`AsyncPluralityConsensus`
    A sequential-model runner on ``K_n`` that holds list state for the
    whole run and adds what the experiments measure: clock skew, the
    working-time spread trace, and the first-consensus /
    first-termination times.  T6, T7 and A1-A4 drive it.

``tests/test_async_block.py`` tests the block path against the per-tick
loop (value for value on shared draws, and in law);
``tests/test_async_protocol_adapter.py`` tests the runner against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from ..api.registry import ParamSpec, register_protocol
from ..core.colors import ColorConfiguration
from ..core.exceptions import ConfigurationError
from ..core.results import RunResult, Trace
from ..core.rng import SeedLike, as_generator
from ..core.state import NO_COLOR, AsyncNodeState
from ..engine.base import build_result, materialize_initial
from ..graphs.complete import CompleteGraph
from ..graphs.topology import Topology
from .base import SequentialProtocol
from .schedule import (
    ACTION_BP,
    ACTION_NOP,
    ACTION_SYNC_JUMP,
    ACTION_SYNC_SAMPLE,
    ACTION_TC_COMMIT,
    ACTION_TC_SAMPLE,
    PhaseSchedule,
)
from .sync_gadget import SyncSampleBuffer, jump_target

__all__ = ["ClockSkew", "AsyncPluralityConsensus", "AsyncPluralityProtocol", "apply_tick_block"]


@dataclass(frozen=True)
class ClockSkew:
    """Heterogeneous Poisson clock rates (robustness extension).

    The paper's weak-synchronicity notion explicitly tolerates ``o(n)``
    poorly synchronised nodes; this knob creates them deliberately: a
    ``fraction`` of nodes tick at ``rate`` (relative to the unit rate
    of the rest), so e.g. ``ClockSkew(0.05, 0.5)`` makes 5% of the
    population run at half speed.  Ablation experiment A1 sweeps this.

    Asymmetry worth knowing: *slow* clocks are absorbed — the Sync
    Gadget and the tick-budgeted endgame simply make everyone wait —
    but a *fast* minority beyond ~1.5x can race through the endgame and
    freeze its colour before global consensus, because termination is
    counted in own ticks (the paper's model has unit rates, so this
    regime is outside its guarantees; see
    ``tests/test_clock_skew.py::test_very_fast_minority_can_terminate_prematurely``).
    """

    fraction: float = 0.0
    rate: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.fraction < 1.0:
            raise ConfigurationError(f"fraction must be in [0, 1), got {self.fraction}")
        if self.rate <= 0.0:
            raise ConfigurationError(f"rate must be positive, got {self.rate}")

    @property
    def is_uniform(self) -> bool:
        return self.fraction == 0.0 or self.rate == 1.0

    def total_rate(self, n: int) -> float:
        """Aggregate tick rate of the population (unit-rate nodes = 1)."""
        slow = int(round(self.fraction * n))
        return slow * self.rate + (n - slow)


@dataclass(frozen=True)
class _ScheduleParams:
    """Constructor-time schedule knobs, resolved per ``n`` at run time."""

    delta_factor: float = 1.0
    phases: Optional[int] = None
    phase_factor: float = 3.0
    phase_offset: int = 2
    bp_blocks: int = 2
    min_sync_blocks: int = 2
    sync_samples: Optional[int] = None
    endgame_factor: float = 14.0
    sync_enabled: bool = True

    def compile(self, n: int) -> PhaseSchedule:
        return PhaseSchedule.compile(
            n,
            delta_factor=self.delta_factor,
            phases=self.phases,
            phase_factor=self.phase_factor,
            phase_offset=self.phase_offset,
            bp_blocks=self.bp_blocks,
            min_sync_blocks=self.min_sync_blocks,
            sync_samples=self.sync_samples,
            endgame_factor=self.endgame_factor,
            sync_enabled=self.sync_enabled,
        )


class AsyncPluralityConsensus:
    """Sequential-model runner on ``K_n`` for the experiments.

    Runs :func:`apply_tick_block` on list state it holds for the whole
    run, in chunks that end on its consensus-check cadence, and records
    what the experiments measure (clock skew, spread trace, first
    consensus and first termination).  All keyword arguments
    parameterise the :class:`~repro.protocols.schedule.PhaseSchedule`
    (see DESIGN.md §4); ``sync_enabled=False`` disables the Sync Gadget
    for the T7 ablation.
    """

    def __init__(
        self,
        delta_factor: float = 1.0,
        phases: Optional[int] = None,
        phase_factor: float = 3.0,
        phase_offset: int = 2,
        bp_blocks: int = 2,
        min_sync_blocks: int = 2,
        sync_samples: Optional[int] = None,
        endgame_factor: float = 14.0,
        sync_enabled: bool = True,
    ):
        self.params = _ScheduleParams(
            delta_factor=delta_factor,
            phases=phases,
            phase_factor=phase_factor,
            phase_offset=phase_offset,
            bp_blocks=bp_blocks,
            min_sync_blocks=min_sync_blocks,
            sync_samples=sync_samples,
            endgame_factor=endgame_factor,
            sync_enabled=sync_enabled,
        )

    def schedule_for(self, n: int) -> PhaseSchedule:
        """The compiled working-time schedule used for *n* nodes."""
        return self.params.compile(n)

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------
    def run(
        self,
        initial: Union[ColorConfiguration, np.ndarray],
        seed: SeedLike = None,
        max_parallel_time: Optional[float] = None,
        stop_at_consensus: bool = True,
        record_spread: bool = True,
        spread_every_parallel: float = 1.0,
        record_trace: bool = False,
        trace_every_parallel: float = 1.0,
        skew: Optional[ClockSkew] = None,
    ) -> RunResult:
        """Execute the full protocol (part one + endgame).

        Parameters
        ----------
        initial:
            Counts vector or per-node colour array.
        max_parallel_time:
            Hard time budget; the default covers the whole schedule for
            every node with generous slack.
        stop_at_consensus:
            Return as soon as consensus is observed (checked once per
            parallel time unit).  Set ``False`` to run until every node
            terminates — required when measuring the Section 3.2 claim
            that consensus precedes the first termination.
        record_spread:
            Record working-time spread and the fraction of poorly
            synchronised nodes (``|wt - median| > Delta``) once per
            ``spread_every_parallel`` time units into
            ``metadata["spread_trace"]``.
        skew:
            Optional :class:`ClockSkew` making a fraction of nodes tick
            at a non-unit rate (robustness extension; ablation A1).
            Parallel time is then measured against the aggregate rate.
        """
        rng = as_generator(seed)
        colors_arr, k = materialize_initial(initial, rng)
        n = colors_arr.size
        if n < 2:
            raise ConfigurationError("the protocol needs at least 2 nodes")
        schedule = self.schedule_for(n)
        total_wt = schedule.total_length
        delta = schedule.delta

        skew = skew if skew is not None else ClockSkew()
        # With heterogeneous clocks, global ticks arrive at the aggregate
        # rate; `tick_rate` converts tick counts to parallel time.
        tick_rate = skew.total_rate(n)
        slow_count = int(round(skew.fraction * n))
        if max_parallel_time is None:
            # Every node needs `total_wt` own ticks; all clocks reach T
            # ticks within T + O(log n) parallel time w.h.p.  Slow nodes
            # need proportionally longer.
            slack = 1.0 / min(skew.rate, 1.0) if slow_count else 1.0
            max_parallel_time = (1.5 * total_wt + 20.0 * max(math.log(n), 1.0)) * slack
        max_ticks = int(max_parallel_time * tick_rate)

        # The rule runs on the state's own lists for the whole run.
        state = AsyncNodeState(colors_arr, k, schedule=schedule, buffers=[SyncSampleBuffer() for _ in range(n)])
        colors, bit, inter, wt, rt, terminated = state.lists()
        counts, buffers = state.histogram, state.buffers
        initial_counts = list(counts)

        trace = Trace() if record_trace else None
        if trace is not None:
            trace.record(0.0, counts)
        trace_stride = max(1, int(trace_every_parallel * tick_rate))
        next_trace_tick = trace_stride
        spread_trace: List[Dict] = []
        spread_stride = max(1, int(spread_every_parallel * tick_rate))
        next_spread_tick = spread_stride

        ticks = 0
        alive = n
        first_consensus_tick: Optional[int] = None
        first_termination_tick: Optional[int] = None
        # Check consensus 4x per parallel time unit: the O(k) count scan
        # is cheap and a coarser cadence would systematically date the
        # "first consensus" event later than the (exactly known) first
        # termination when comparing the two (Section 3.2).
        check_stride = max(1, int(tick_rate) // 4)
        batch = 8192
        graph = CompleteGraph(n)

        if slow_count and not skew.is_uniform:
            # Two-tier selection: a tick belongs to the slow group with
            # probability (slow mass) / (total mass), then uniform within
            # the group — equal in law to per-node Poisson racing.
            slow_ids = rng.choice(n, size=slow_count, replace=False)
            fast_ids = np.setdiff1d(np.arange(n), slow_ids)
            p_slow = slow_count * skew.rate / tick_rate
        else:
            slow_ids = fast_ids = None
            p_slow = 0.0

        picks = first = second = []
        pos = 0
        while alive > 0 and ticks < max_ticks:
            if pos == len(picks):
                # Presample a batch of actors and two neighbours per tick.
                if slow_ids is None:
                    drawn = rng.integers(0, n, size=batch)
                else:
                    in_slow = rng.random(batch) < p_slow
                    slow_picks = slow_ids[rng.integers(0, slow_ids.size, size=batch)]
                    fast_picks = fast_ids[rng.integers(0, fast_ids.size, size=batch)]
                    drawn = np.where(in_slow, slow_picks, fast_picks)
                pairs = graph.sample_neighbors_block(drawn, 2, rng)
                picks, first, second = drawn.tolist(), pairs[:, 0].tolist(), pairs[:, 1].tolist()
                pos = 0
            # Chunks end on check_stride boundaries, the run's check cadence.
            chunk = min(check_stride - ticks % check_stride, max_ticks - ticks, len(picks) - pos)
            end = pos + chunk
            ends = apply_tick_block(
                schedule, picks[pos:end], first[pos:end], second[pos:end],
                counts, buffers, colors, bit, inter, wt, rt, terminated,
            )
            pos = end
            if ends:
                if first_termination_tick is None:
                    first_termination_tick = ticks + ends[0] + 1
                alive -= len(ends)
                if alive == 0:
                    ticks += ends[-1] + 1
                    break
            ticks += chunk
            if ticks % check_stride == 0:
                if first_consensus_tick is None and max(counts) == n:
                    first_consensus_tick = ticks
                    if stop_at_consensus:
                        break
                if record_spread and ticks >= next_spread_tick:
                    next_spread_tick += spread_stride
                    spread_trace.append(
                        _spread_snapshot(ticks / tick_rate, wt, terminated, delta)
                    )
                if trace is not None and ticks >= next_trace_tick:
                    next_trace_tick += trace_stride
                    trace.record(ticks / tick_rate, counts)

        final_counts = np.asarray(counts, dtype=np.int64)
        consensus = int(final_counts.max()) == n
        converged = consensus or (first_consensus_tick is not None)
        if trace is not None:
            trace.record(ticks / tick_rate, counts)
        metadata = {
            "engine": "async-plurality/fast",
            "protocol": "async-plurality",
            "schedule": schedule.describe(),
            "delta": schedule.delta,
            "phases": schedule.phases,
            "part_one_length": schedule.part_one_length,
            "endgame_ticks": schedule.endgame_ticks,
            "sync_enabled": schedule.sync_enabled,
            "first_consensus_parallel_time": (
                None if first_consensus_tick is None else first_consensus_tick / tick_rate
            ),
            "first_termination_parallel_time": (
                None if first_termination_tick is None else first_termination_tick / tick_rate
            ),
            "consensus_before_first_termination": (
                None
                if first_consensus_tick is None
                else (first_termination_tick is None or first_consensus_tick <= first_termination_tick)
            ),
            "terminated_nodes": n - alive,
            "spread_trace": spread_trace,
        }
        return build_result(
            converged=converged,
            initial_counts=np.asarray(initial_counts, dtype=np.int64),
            final_counts=final_counts,
            rounds=ticks,
            parallel_time=ticks / tick_rate,
            trace=trace,
            metadata=metadata,
        )


def apply_tick_block(
    schedule: PhaseSchedule, nodes: List[int], first: List[int], second: List[int],
    counts: List[int], buffers: List[SyncSampleBuffer], colors: List[int], bit: List[bool],
    inter: List[int], wt: List[int], rt: List[int], terminated: List[bool],
) -> List[int]:
    """Apply one instantaneous tick per ``nodes[t]``, in order, to list state.

    The protocol's one tick rule, run by :class:`AsyncPluralityProtocol`
    and :class:`AsyncPluralityConsensus`.  Tick ``t``'s actor observes
    the presampled neighbours ``first[t]`` and ``second[t]`` with the
    semantics of :meth:`AsyncPluralityProtocol.tick_apply`: one-sample
    actions use ``first[t]``, and terminated actors and non-sampling
    actions discard their draws.  *counts* (the colour histogram) is
    kept in step with *colors*; *buffers* are mutated in place.  Returns
    the in-block offsets of the ticks that terminated their actor.
    """
    actions = schedule.action_list
    part_one = schedule.part_one_length
    total_wt = schedule.total_length
    phase_len = schedule.phase_length
    ends: List[int] = []
    for t, u in enumerate(nodes):
        if terminated[u]:
            continue
        w = wt[u]
        wt[u] = w + 1
        c = NO_COLOR  # the colour u adopts this tick, if any
        if w >= part_one:
            # Endgame: plain asynchronous Two-Choices, then termination.
            c = colors[first[t]]
            if c != colors[second[t]]:
                c = NO_COLOR
            if w + 1 >= total_wt:
                terminated[u] = True
                ends.append(t)
        else:
            a = actions[w]
            if a == ACTION_NOP:
                pass
            elif a == ACTION_BP:
                if not bit[u] and bit[first[t]]:
                    c = colors[first[t]]
                    bit[u] = True
            elif a == ACTION_SYNC_SAMPLE:
                # SyncSampleBuffer.collect, inlined: this is the rule's
                # most frequent sampling action.
                buffer = buffers[u]
                phase = w // phase_len
                if buffer.phase != phase:
                    buffer.phase = phase
                    buffer.offsets = []
                buffer.offsets.append(rt[first[t]] - rt[u])
            elif a == ACTION_TC_SAMPLE:
                inter[u] = colors[first[t]] if colors[first[t]] == colors[second[t]] else NO_COLOR
            elif a == ACTION_TC_COMMIT:
                c = inter[u]
                bit[u] = c != NO_COLOR
                inter[u] = NO_COLOR
            else:  # ACTION_SYNC_JUMP
                phase = w // phase_len
                target = jump_target(buffers[u], phase, rt[u], schedule.sync_starts[phase])
                buffers[u].clear()
                if target is not None:
                    wt[u] = target
        rt[u] += 1
        if c != NO_COLOR and c != colors[u]:
            counts[colors[u]] -= 1
            counts[c] += 1
            colors[u] = c
    return ends


def _spread_snapshot(parallel_time: float, wt: List[int], terminated: List[bool], delta: int) -> Dict:
    """Working-time dispersion among active nodes (at least one) at one instant.

    ``poor_fraction`` uses the paper's threshold ``Delta``;
    ``poor_fraction_2x`` / ``poor_fraction_4x`` loosen it, which matters
    at laptop-scale ``n`` where the Poisson noise within a single phase
    already exceeds the asymptotic ``Delta`` (see EXPERIMENTS.md, T7).
    """
    active = np.array([w for w, t in zip(wt, terminated) if not t], dtype=np.int64)
    median = np.median(active)
    deviation = np.abs(active - median)
    lo, hi = np.quantile(active, [0.005, 0.995])
    return {
        "time": parallel_time,
        "spread": int(active.max() - active.min()),
        "spread_core": int(round(hi - lo)),
        "poor_fraction": float(np.mean(deviation > delta)),
        "poor_fraction_2x": float(np.mean(deviation > 2 * delta)),
        "poor_fraction_4x": float(np.mean(deviation > 4 * delta)),
    }


class AsyncPluralityProtocol(SequentialProtocol):
    """Tick-interface realisation of the phased protocol.

    The same tick rule as :class:`AsyncPluralityConsensus`, expressed
    through :class:`~repro.protocols.base.SequentialProtocol` so the
    generic engines drive it: :meth:`seq_tick_batch` runs
    :func:`apply_tick_block` for the instantaneous models, and
    :meth:`tick_targets` / :meth:`tick_apply` serve the continuous-time
    engine with response delays (experiment T12) and the per-tick
    oracle loop.

    Under delayed responses, a node whose request is in flight skips
    protocol actions while its clock ticks (see
    :mod:`repro.engine.continuous`); target attributes (bit, real time)
    are read at response-completion time.
    """

    name = "async-plurality/seq"

    def __init__(self, **schedule_kwargs):
        self.params = _ScheduleParams(**schedule_kwargs)

    # -- state -----------------------------------------------------------
    def make_state(self, colors: np.ndarray, k: int) -> AsyncNodeState:
        colors = np.asarray(colors, dtype=np.int64)
        return AsyncNodeState(
            colors=colors,
            k=k,
            schedule=self.params.compile(colors.size),
            buffers=[SyncSampleBuffer() for _ in range(colors.size)],
        )

    def seq_tick_batch(self, state: AsyncNodeState, nodes: np.ndarray, topology: Topology, rng: np.random.Generator) -> None:
        """One instantaneous tick per entry of *nodes* through
        :func:`apply_tick_block`, on the state's own lists: one
        ``sample_neighbors_block`` call per block, and no state copy."""
        nodes = np.asarray(nodes, dtype=np.int64)
        first, second = topology.sample_neighbors_block(nodes, 2, rng).T.tolist()
        ends = apply_tick_block(
            state.schedule, nodes.tolist(), first, second, state.histogram, state.buffers, *state.lists()
        )
        state.alive -= len(ends)

    # -- tick interface ----------------------------------------------------
    def tick_targets(self, state: AsyncNodeState, node: int, topology: Topology, rng: np.random.Generator) -> np.ndarray:
        schedule: PhaseSchedule = state.schedule
        if state.terminated.values[node]:
            return np.empty(0, dtype=np.int64)
        w = state.working_time.values[node]
        # The endgame samples two neighbours, like a Two-Choices step.
        action = ACTION_TC_SAMPLE if w >= schedule.part_one_length else schedule.action_at(w)
        if action == ACTION_TC_SAMPLE:
            count = 2
        elif action == ACTION_SYNC_SAMPLE or (action == ACTION_BP and not state.bit.values[node]):
            count = 1
        else:
            count = 0
        targets = topology.sample_neighbors(node, count, rng) if count else np.empty(0, dtype=np.int64)
        state.pending_targets[node] = targets
        return targets

    def tick_apply(self, state: AsyncNodeState, node: int, observed_colors: np.ndarray) -> None:
        schedule: PhaseSchedule = state.schedule
        colors, bit, inter, wt, rt, terminated = state.lists()
        if terminated[node]:
            return
        targets = state.pending_targets.pop(node, ())
        agree = len(observed_colors) == 2 and observed_colors[0] == observed_colors[1]
        w = wt[node]
        wt[node] = w + 1
        action = schedule.action_at(w)
        c = NO_COLOR  # the colour the node adopts this tick, if any
        if w >= schedule.part_one_length:
            if agree:
                c = int(observed_colors[0])
            if w + 1 >= schedule.total_length:
                terminated[node] = True
                state.alive -= 1
        elif action == ACTION_TC_SAMPLE:
            inter[node] = int(observed_colors[0]) if agree else NO_COLOR
        elif action == ACTION_TC_COMMIT:
            c = inter[node]
            bit[node] = c != NO_COLOR
            inter[node] = NO_COLOR
        elif action == ACTION_BP:
            # Bit and colour are read together at response time.
            if not bit[node] and len(targets) and bit[targets[0]]:
                c = colors[targets[0]]
                bit[node] = True
        elif action == ACTION_SYNC_SAMPLE and len(targets):
            state.buffers[node].collect(w // schedule.phase_length, rt[targets[0]], rt[node])
        elif action == ACTION_SYNC_JUMP:
            phase = w // schedule.phase_length
            target_wt = jump_target(state.buffers[node], phase, rt[node], schedule.sync_starts[phase])
            state.buffers[node].clear()
            if target_wt is not None:
                wt[node] = target_wt
        rt[node] += 1
        if c != NO_COLOR and c != colors[node]:
            state.histogram[colors[node]] -= 1
            state.histogram[c] += 1
            colors[node] = c

    def is_absorbed(self, state: AsyncNodeState) -> bool:
        return state.alive == 0


register_protocol(
    "async-plurality",
    description="The paper's phased asynchronous protocol with the Sync Gadget (Theorem 1.3)",
    sequential=AsyncPluralityProtocol,
    params=[
        ParamSpec("delta_factor", kind="float", default=1.0, doc="working-time spread bound multiplier"),
        ParamSpec("phases", kind="int", doc="number of Two-Choices/BP phases (default: schedule-derived)"),
        ParamSpec("phase_factor", kind="float", default=3.0, doc="phase-count multiplier on log2 log2 n"),
        ParamSpec("phase_offset", kind="int", default=2, doc="additive phase-count constant"),
        ParamSpec("bp_blocks", kind="int", default=2, doc="Bit-Propagation blocks per phase"),
        ParamSpec("min_sync_blocks", kind="int", default=2, doc="minimum Sync Gadget blocks per phase"),
        ParamSpec("sync_samples", kind="int", doc="samples per Sync block (default: schedule-derived)"),
        ParamSpec("endgame_factor", kind="float", default=14.0, doc="endgame length multiplier on ln n"),
        ParamSpec("sync_enabled", kind="bool", default=True, doc="enable the Sync Gadget"),
    ],
)
