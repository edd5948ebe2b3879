"""The Sync Gadget (weak perpetual synchronisation).

The paper's novel gadget (Section 3.1, "Weak Perpetual
Synchronization"): at the end of every phase each node

1. during the *sampling sub-phase* (``log^3 log n`` ticks) samples one
   uniform neighbour per tick and collects that neighbour's **real
   time** (total ticks the neighbour ever performed);
2. *ages* every collected sample by one for each of its own subsequent
   ticks, so old samples remain comparable to fresh ones;
3. at the **jump step** — after tactical waiting at the end of the
   sub-phase — sets its **working time** to the *median* of the aged
   samples.

Because the median of the population's real times tracks the global
tick count, the jump pulls stragglers forward and speeders back, which
keeps all but ``o(n)`` nodes within ``Delta`` of one another — the weak
synchronicity the rest of the protocol relies on.

Implementation notes
--------------------
*Ageing without per-tick work.*  Collecting sample ``s`` when the
collector's own real time is ``r0`` and jumping when it is ``r1``
yields the aged value ``s + (r1 - r0)``.  We therefore store the offset
``s - r0`` and add ``r1`` at the jump — O(1) per sample, O(0) per tick.

*Backward-jump clamp.*  A speeder may be told to move its working time
backwards.  Un-clamped, it could re-execute the (non-idempotent)
Two-Choices or Bit-Propagation steps of the phase it just finished; we
therefore clamp the jump target from below to the start of the current
sync sub-phase, so at worst the node repeats sampling and tactical
waiting ("proper waiting time" in the paper's words).

*Stale-buffer guard.*  A node that jumps over a phase boundary could
carry samples from an earlier phase into a later sync sub-phase.  Each
buffer is tagged with the phase it was collected in and is discarded on
mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["SyncSampleBuffer", "median_of_samples", "jump_target"]


@dataclass
class SyncSampleBuffer:
    """Aged real-time samples collected during one sync sub-phase."""

    phase: int = -1
    offsets: List[int] = field(default_factory=list)

    def collect(self, phase: int, sampled_real_time: int, own_real_time: int) -> None:
        """Record one neighbour's real time (stored as an ageing offset).

        Starting a new phase implicitly clears samples from any earlier
        phase (the stale-buffer guard).
        """
        if phase != self.phase:
            self.phase = phase
            self.offsets = []
        self.offsets.append(int(sampled_real_time) - int(own_real_time))

    def aged_samples(self, own_real_time: int) -> List[int]:
        """All samples aged to the caller's current real time."""
        return [offset + int(own_real_time) for offset in self.offsets]

    def clear(self) -> None:
        self.phase = -1
        self.offsets = []

    def __len__(self) -> int:
        return len(self.offsets)


def median_of_samples(samples: List[int]) -> int:
    """Lower median (keeps working times integral, matches the paper's
    order-statistic robustness against a minority of poorly
    synchronised nodes)."""
    ordered = sorted(samples)
    return ordered[(len(ordered) - 1) // 2]


def jump_target(
    buffer: SyncSampleBuffer,
    phase: int,
    own_real_time: int,
    sync_start: int,
) -> Optional[int]:
    """Working time to jump to, or ``None`` to skip the jump.

    Returns ``None`` when the buffer holds no samples for this phase —
    e.g. the node jumped straight into the waiting region — in which
    case the caller leaves its working time untouched.
    """
    if buffer.phase != phase or not buffer.offsets:
        return None
    # Ageing adds the same own_real_time to every offset, so it commutes
    # with the (lower) median: age the median instead of every sample.
    median = median_of_samples(buffer.offsets) + int(own_real_time)
    return max(median, int(sync_start))
