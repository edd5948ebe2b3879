"""Agent-level simulation state.

The agent-based engines keep per-node state in flat numpy arrays (one
entry per node) gathered in a :class:`NodeArrayState`.  Structure-of-
arrays beats an object per node by orders of magnitude in Python, and it
lets protocols vectorise whole-round updates.

The asynchronous protocol of the paper additionally needs per-node
*working time*, *real time*, the one extra *bit*, an *intermediate
colour* register and the Sync Gadget's sample buffer; those live in
:class:`AsyncNodeState`, a superset used only by the phased protocol.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from .colors import ColorConfiguration, counts_from_assignment
from .exceptions import ConfigurationError

__all__ = ["NodeArrayState", "AsyncNodeState", "NO_COLOR"]

#: Sentinel for "no intermediate colour set" (paper: the two sampled
#: neighbours disagreed, so the node does not pre-commit).
NO_COLOR = -1


@dataclass
class NodeArrayState:
    """Structure-of-arrays state shared by all agent-based protocols.

    Attributes
    ----------
    colors:
        ``int64[n]`` — current opinion of every node.
    k:
        Number of colour classes (fixed for the lifetime of a run).
    """

    colors: np.ndarray
    k: int

    def __post_init__(self):
        self.colors = np.asarray(self.colors, dtype=np.int64)
        if self.colors.ndim != 1:
            raise ConfigurationError("colors must be a 1-D array")
        if self.colors.size == 0:
            raise ConfigurationError("state needs at least one node")
        if self.k <= 0:
            raise ConfigurationError(f"k must be positive, got {self.k}")
        if self.colors.min() < 0 or self.colors.max() >= self.k:
            raise ConfigurationError("colour labels out of range for k")

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.colors.size

    def configuration(self) -> ColorConfiguration:
        """Snapshot of colour counts (O(n))."""
        return counts_from_assignment(self.colors, k=self.k)

    def counts(self) -> np.ndarray:
        """Raw counts vector as an array (O(n))."""
        return np.bincount(self.colors, minlength=self.k)

    def is_consensus(self) -> bool:
        """True iff every node holds the same colour."""
        first = self.colors[0]
        return bool(np.all(self.colors == first))

    def copy(self) -> "NodeArrayState":
        return NodeArrayState(colors=self.colors.copy(), k=self.k)


@dataclass
class AsyncNodeState(NodeArrayState):
    """State for the asynchronous phased protocol (Theorem 1.3).

    Extra per-node attributes beyond :class:`NodeArrayState`:

    working_time:
        The schedule-relevant clock the Sync Gadget manipulates.
    real_time:
        Total number of ticks the node has ever performed; the Sync
        Gadget reads *other* nodes' real times but never rewrites them.
    bit:
        The one extra bit of the memory model ("I changed my opinion in
        the last Two-Choices step" / "I learned a fresh opinion").
    intermediate:
        Colour pre-committed in the Two-Choices step (``NO_COLOR`` if
        the two samples disagreed), adopted at the commit step.
    terminated:
        Nodes that finished the endgame and froze their colour.
    schedule:
        The compiled :class:`~repro.protocols.schedule.PhaseSchedule`.
    buffers:
        Per-node :class:`~repro.protocols.sync_gadget.SyncSampleBuffer`
        of aged real-time samples collected during the current
        Sync-Gadget sub-phase (cleared at each jump step).
    pending_targets:
        Targets drawn by ``tick_targets``, awaiting ``tick_apply``.
    """

    working_time: np.ndarray = None
    real_time: np.ndarray = None
    bit: np.ndarray = None
    intermediate: np.ndarray = None
    terminated: np.ndarray = None
    schedule: Any = None
    buffers: List[Any] = field(default_factory=list)
    pending_targets: Dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        n = self.n
        if self.working_time is None:
            self.working_time = np.zeros(n, dtype=np.int64)
        if self.real_time is None:
            self.real_time = np.zeros(n, dtype=np.int64)
        if self.bit is None:
            self.bit = np.zeros(n, dtype=bool)
        if self.intermediate is None:
            self.intermediate = np.full(n, NO_COLOR, dtype=np.int64)
        if self.terminated is None:
            self.terminated = np.zeros(n, dtype=bool)
        for name in ("working_time", "real_time", "bit", "intermediate", "terminated"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ConfigurationError(f"{name} must have shape ({n},), got {arr.shape}")

    def working_time_spread(self, quantile: float = 1.0) -> int:
        """Spread of working times among active nodes.

        With ``quantile=1.0`` this is max-min; smaller quantiles drop
        the tails, matching the paper's "all but o(n) nodes are within
        ``Delta`` of one another" notion (use e.g. ``quantile=0.99``).
        """
        active = self.working_time[~self.terminated]
        if active.size == 0:
            return 0
        if quantile >= 1.0:
            return int(active.max() - active.min())
        lo = np.quantile(active, (1.0 - quantile) / 2.0)
        hi = np.quantile(active, 1.0 - (1.0 - quantile) / 2.0)
        return int(round(hi - lo))

    def copy(self) -> "AsyncNodeState":
        return AsyncNodeState(
            colors=self.colors.copy(),
            k=self.k,
            working_time=self.working_time.copy(),
            real_time=self.real_time.copy(),
            bit=self.bit.copy(),
            intermediate=self.intermediate.copy(),
            terminated=self.terminated.copy(),
            schedule=self.schedule,
            buffers=deepcopy(self.buffers),
            pending_targets=dict(self.pending_targets),
        )
