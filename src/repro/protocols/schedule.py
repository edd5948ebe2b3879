"""Working-time schedule for the asynchronous phased protocol.

Section 3.1 of the paper: the algorithm operates in multiple phases,
each split into three sub-phases built from *blocks* of length
``Delta = Theta(log n / log log n)``; between the critical instructions
there are *do-nothing blocks* ("tactical waiting") so that all
well-synchronised nodes — whose working times differ by at most
``Delta`` — execute every critical instruction in the intended order.

The brief announcement gives the architecture but no pseudo-code, so
this module pins down a concrete layout (every constant is a
constructor argument; DESIGN.md section 4 records the rationale):

* **Two-Choices sub-phase** — 4 blocks ``[sample | wait | commit | wait]``.
  The sample and the commit each occupy a *single working-time slot*
  (the first slot of their block); the two wait blocks guarantee that
  every well-synchronised node finishes sampling before any of them
  commits, and finishes committing before Bit-Propagation starts.
* **Bit-Propagation sub-phase** — ``bp_blocks`` blocks in which every
  slot is a Bit-Propagation step (sample one neighbour; adopt colour
  and bit from a bit-carrying node).
* **Sync-Gadget sub-phase** — sized to fit ``sync_samples ~
  (log log n)^3`` sampling slots, at least one waiting slot, and the
  final **jump** slot, rounded up to whole blocks (at least
  ``min_sync_blocks``).

A schedule compiles to a flat ``int8`` array ``actions`` indexed by
working time — the per-tick dispatch in the simulator is one array
lookup.  Working times beyond :attr:`part_one_length` are the endgame
(plain asynchronous Two-Choices for ``endgame_ticks`` slots, then
termination).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import List

import numpy as np

from ..core.exceptions import ScheduleError

__all__ = [
    "ACTION_NOP",
    "ACTION_TC_SAMPLE",
    "ACTION_TC_COMMIT",
    "ACTION_BP",
    "ACTION_SYNC_SAMPLE",
    "ACTION_SYNC_JUMP",
    "ACTION_NAMES",
    "default_delta",
    "default_phase_count",
    "default_sync_samples",
    "PhaseSchedule",
]

ACTION_NOP = 0
ACTION_TC_SAMPLE = 1
ACTION_TC_COMMIT = 2
ACTION_BP = 3
ACTION_SYNC_SAMPLE = 4
ACTION_SYNC_JUMP = 5

ACTION_NAMES = {
    ACTION_NOP: "nop",
    ACTION_TC_SAMPLE: "tc-sample",
    ACTION_TC_COMMIT: "tc-commit",
    ACTION_BP: "bit-propagation",
    ACTION_SYNC_SAMPLE: "sync-sample",
    ACTION_SYNC_JUMP: "sync-jump",
}


def default_delta(n: int, delta_factor: float = 1.0) -> int:
    """The paper's block length ``Delta = Theta(log n / log log n)``."""
    if n < 2:
        raise ScheduleError(f"n must be >= 2, got {n}")
    log_n = max(math.log(n), 1.0)
    log_log_n = max(math.log(log_n), 1.0)
    return max(1, round(delta_factor * log_n / log_log_n))


def default_phase_count(n: int, phase_factor: float = 3.0, phase_offset: int = 2) -> int:
    """``Theta(log log n)`` phases (quadratic bias amplification)."""
    if n < 2:
        raise ScheduleError(f"n must be >= 2, got {n}")
    log_log_n = max(math.log(max(math.log(n), 1.0)), 1.0)
    return int(math.ceil(phase_factor * log_log_n)) + int(phase_offset)


def default_sync_samples(n: int) -> int:
    """The Sync Gadget's ``log^3 log n`` sampling ticks."""
    if n < 2:
        raise ScheduleError(f"n must be >= 2, got {n}")
    log_log_n = max(math.log(max(math.log(n), 1.0)), 1.5)
    return int(math.ceil(log_log_n**3))


@dataclass(frozen=True)
class PhaseSchedule:
    """Compiled working-time layout for part one of the protocol.

    Build with :meth:`compile`; the dataclass fields are the compiled
    artefacts (a flat action array plus phase landmarks).
    """

    n: int
    delta: int
    phases: int
    bp_blocks: int
    sync_blocks: int
    sync_samples: int
    endgame_ticks: int
    sync_enabled: bool
    actions: np.ndarray = field(repr=False)
    phase_starts: tuple
    sync_starts: tuple
    jump_slots: tuple

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def compile(
        cls,
        n: int,
        delta_factor: float = 1.0,
        phases: int = None,
        phase_factor: float = 3.0,
        phase_offset: int = 2,
        bp_blocks: int = 2,
        min_sync_blocks: int = 2,
        sync_samples: int = None,
        endgame_factor: float = 14.0,
        sync_enabled: bool = True,
    ) -> "PhaseSchedule":
        """Compute the layout for a system of *n* nodes.

        Parameters mirror DESIGN.md section 4; passing explicit
        ``phases`` or ``sync_samples`` overrides the ``Theta(.)``
        defaults (useful in unit tests).  ``phases=0`` leaves part one
        empty: every node runs the endgame from its first tick.
        """
        if n < 2:
            raise ScheduleError(f"n must be >= 2, got {n}")
        if bp_blocks < 1:
            raise ScheduleError(f"bp_blocks must be >= 1, got {bp_blocks}")
        if min_sync_blocks < 1:
            raise ScheduleError(f"min_sync_blocks must be >= 1, got {min_sync_blocks}")
        delta = default_delta(n, delta_factor)
        if phases is None:
            phases = default_phase_count(n, phase_factor, phase_offset)
        if phases < 0:
            raise ScheduleError(f"phases must be >= 0, got {phases}")
        if sync_samples is None:
            sync_samples = default_sync_samples(n)
        if sync_samples < 1:
            raise ScheduleError(f"sync_samples must be >= 1, got {sync_samples}")
        # The sync sub-phase must fit sampling + >=1 wait + the jump.
        sync_blocks = max(min_sync_blocks, math.ceil((sync_samples + 2) / delta))
        sync_len = sync_blocks * delta
        if sync_samples > sync_len - 2:
            sync_samples = sync_len - 2
        endgame_ticks = max(1, int(math.ceil(endgame_factor * max(math.log(n), 1.0))))

        tc_len = 4 * delta
        bp_len = bp_blocks * delta
        phase_len = tc_len + bp_len + sync_len
        actions = np.zeros(phases * phase_len, dtype=np.int8)
        phase_starts: List[int] = []
        sync_starts: List[int] = []
        jump_slots: List[int] = []
        for p in range(phases):
            start = p * phase_len
            phase_starts.append(start)
            actions[start] = ACTION_TC_SAMPLE
            actions[start + 2 * delta] = ACTION_TC_COMMIT
            bp_start = start + tc_len
            actions[bp_start:bp_start + bp_len] = ACTION_BP
            sync_start = bp_start + bp_len
            sync_starts.append(sync_start)
            jump = sync_start + sync_len - 1
            jump_slots.append(jump)
            if sync_enabled:
                actions[sync_start:sync_start + sync_samples] = ACTION_SYNC_SAMPLE
                actions[jump] = ACTION_SYNC_JUMP
        return cls(
            n=n,
            delta=delta,
            phases=phases,
            bp_blocks=bp_blocks,
            sync_blocks=sync_blocks,
            sync_samples=sync_samples,
            endgame_ticks=endgame_ticks,
            sync_enabled=sync_enabled,
            actions=actions,
            phase_starts=tuple(phase_starts),
            sync_starts=tuple(sync_starts),
            jump_slots=tuple(jump_slots),
        )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def phase_length(self) -> int:
        """Working-time slots per phase."""
        return (4 + self.bp_blocks + self.sync_blocks) * self.delta

    @property
    def part_one_length(self) -> int:
        """Total working-time slots of part one (all phases)."""
        return self.phases * self.phase_length

    @property
    def total_length(self) -> int:
        """Part one plus the endgame budget."""
        return self.part_one_length + self.endgame_ticks

    def phase_of(self, working_time: int) -> int:
        """Phase index containing *working_time* (clamped to the last)."""
        if working_time < 0:
            raise ScheduleError(f"working time must be >= 0, got {working_time}")
        return min(working_time // self.phase_length, self.phases - 1)

    @cached_property
    def action_list(self) -> List[int]:
        """:attr:`actions` as a list, built once per schedule for the tick rules."""
        return self.actions.tolist()

    def action_at(self, working_time: int) -> int:
        """Action code for a working-time slot (NOP beyond part one)."""
        if 0 <= working_time < self.actions.size:
            return self.action_list[working_time]
        return ACTION_NOP

    def in_endgame(self, working_time: int) -> bool:
        """True for slots belonging to part two."""
        return working_time >= self.part_one_length

    def describe(self) -> str:
        """Human-readable summary used by the CLI and the examples."""
        return (
            f"PhaseSchedule(n={self.n}, delta={self.delta}, phases={self.phases}, "
            f"phase_length={self.phase_length}, part_one={self.part_one_length}, "
            f"sync_samples={self.sync_samples}, endgame={self.endgame_ticks}, "
            f"sync_enabled={self.sync_enabled})"
        )
