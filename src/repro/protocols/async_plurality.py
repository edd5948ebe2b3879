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
  terminates, w.h.p. (Section 3.2).  ``phases=0`` runs the endgame
  alone, which is how experiment T9 checks exactly that.

One tick rule.  :func:`apply_tick_block` applies a block of
instantaneous ticks — each with a presampled actor and two presampled
neighbours — to plain-list state.  :class:`AsyncPluralityProtocol`'s
``seq_tick_batch`` runs it per engine block directly on the lists of
the :class:`~repro.core.state.AsyncNodeState` (which keeps them, the
colour histogram and the live-node count for the whole run), so
``simulate()``, :class:`~repro.engine.sequential.SequentialEngine` and
the zero-delay :class:`~repro.engine.continuous.ContinuousEngine` run
the rule on any topology.  Its ``tick_targets`` / ``tick_apply`` pair
is the per-tick form, used by the continuous-time engine with response
delays (experiment T12) and as the oracle the block path is tested
against (``tests/test_async_block.py``: value for value on shared
draws, and in law).

What the experiments measure beyond the counts rides on the generic
engines: :meth:`AsyncPluralityProtocol.trace_fields` puts the
working-time spread and the terminated-node count on every trace point,
and :meth:`AsyncPluralityProtocol.default_budget` sizes a run's budget
to the schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..api.registry import ParamSpec, register_protocol
from ..core.state import NO_COLOR, AsyncNodeState
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

__all__ = ["AsyncPluralityProtocol", "apply_tick_block"]


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


def apply_tick_block(
    schedule: PhaseSchedule, nodes: List[int], first: List[int], second: List[int],
    counts: List[int], buffers: List[SyncSampleBuffer], colors: List[int], bit: List[bool],
    inter: List[int], wt: List[int], rt: List[int], terminated: List[bool],
) -> List[int]:
    """Apply one instantaneous tick per ``nodes[t]``, in order, to list state.

    The protocol's one tick rule, run by
    :meth:`AsyncPluralityProtocol.seq_tick_batch`.  Tick ``t``'s actor observes
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


def _spread_snapshot(wt: List[int], terminated: List[bool], delta: int) -> Dict:
    """Working-time dispersion among active nodes (at least one).

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
        "spread": int(active.max() - active.min()),
        "spread_core": int(round(hi - lo)),
        "poor_fraction": float(np.mean(deviation > delta)),
        "poor_fraction_2x": float(np.mean(deviation > 2 * delta)),
        "poor_fraction_4x": float(np.mean(deviation > 4 * delta)),
    }


class AsyncPluralityProtocol(SequentialProtocol):
    """Tick-interface realisation of the phased protocol.

    Expressed through :class:`~repro.protocols.base.SequentialProtocol`
    so the generic engines drive it: :meth:`seq_tick_batch` runs
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
        """List state with the schedule compiled for ``len(colors)`` nodes."""
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
        """Neighbours the node's current action samples (0, 1 or 2)."""
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
        """One tick of the rule, the per-tick reference for :func:`apply_tick_block`."""
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
        """True once every node has terminated."""
        return state.alive == 0

    def trace_fields(self, state: AsyncNodeState) -> Dict:
        """The terminated-node count and, while any node is active, the
        working-time spread (:func:`_spread_snapshot`)."""
        fields = {"terminated": state.n - state.alive}
        if state.alive:
            _, _, _, wt, _, terminated = state.lists()
            fields.update(_spread_snapshot(wt, terminated, state.schedule.delta))
        return fields

    def default_budget(self, n: int) -> float:
        """Every node needs ``total_length`` own ticks, and all clocks
        reach ``T`` ticks within ``T + O(log n)`` parallel time w.h.p.:
        ``1.5 T + 20 ln n`` covers the whole schedule with slack."""
        return 1.5 * self.params.compile(n).total_length + 20.0 * max(math.log(n), 1.0)


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
