"""Agent-level simulation state.

The agent-based engines keep per-node state in flat numpy arrays (one
entry per node) gathered in a :class:`NodeArrayState`.  Structure-of-
arrays beats an object per node by orders of magnitude in Python, and it
lets protocols vectorise whole-round updates.

The asynchronous protocol of the paper additionally needs per-node
*working time*, *real time*, the one extra *bit*, an *intermediate
colour* register and the Sync Gadget's sample buffer; those live in
:class:`AsyncNodeState`, a superset used only by the phased protocol.
Its tick rule touches a handful of scattered nodes per tick, never a
whole field, so its fields are Python lists behind :class:`NodeField`
array views rather than numpy arrays.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .colors import ColorConfiguration, counts_from_assignment
from .exceptions import ConfigurationError

__all__ = ["NodeArrayState", "AsyncNodeState", "NodeField", "NO_COLOR"]

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


class NodeField:
    """Array view of one per-node list of an :class:`AsyncNodeState`.

    The list (:attr:`values`) is the field's only storage.  An integer
    index reads or writes it directly and an integer array gathers from
    it; any other index, and every ndarray attribute (``tolist``,
    ``all``, ``copy``, ``max``, ...), goes through an array built from
    it on the spot, so every reader sees current values.  Writes through
    the view call *on_write*, which lets the state recount what it
    derives from the field.
    """

    __slots__ = ("values", "dtype", "_on_write")

    def __init__(self, values: List[Any], dtype, on_write: Optional[Callable[[], None]] = None):
        self.values = values
        self.dtype = np.dtype(dtype)
        self._on_write = on_write

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.values, dtype=self.dtype if dtype is None else dtype)

    def __getattr__(self, name: str):
        if name.startswith("__") or name in NodeField.__slots__:
            raise AttributeError(name)
        return getattr(self.__array__(), name)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return self.values[index]
        if isinstance(index, np.ndarray) and index.dtype.kind in "iu":
            # A gather (e.g. the colours of a tick's targets) reads only
            # its own entries, not the whole list.
            values = self.values
            return np.array([values[i] for i in index.ravel().tolist()], dtype=self.dtype).reshape(index.shape)
        return self.__array__()[index]

    def __setitem__(self, index, value) -> None:
        if isinstance(index, (int, np.integer)):
            self.values[index] = self.dtype.type(value).item()
        else:
            array = self.__array__()
            array[index] = value
            self.values[:] = array.tolist()
        if self._on_write is not None:
            self._on_write()

    def __eq__(self, other):
        return self.__array__() == other

    def __ne__(self, other):
        return self.__array__() != other

    def __repr__(self) -> str:
        return f"NodeField({self.values!r})"


def _node_field(name: str) -> property:
    """Property serving one :class:`AsyncNodeState` field as its view;
    assigning a whole field writes the new values into the same list."""

    def get(self: "AsyncNodeState") -> NodeField:
        return self._views[name]

    def set(self: "AsyncNodeState", value) -> None:
        self._views[name][:] = value

    return property(get, set)


class AsyncNodeState(NodeArrayState):
    """State for the asynchronous phased protocol (Theorem 1.3).

    Every per-node field is one Python list for the whole run — the
    protocol's tick rules index them once per tick, and list indexing
    beats numpy scalar indexing several times over — exposed as a
    :class:`NodeField` view.  ``field.values`` is the list itself; the
    tick rules read and write it directly.

    colors:
        Current opinion of every node (as on :class:`NodeArrayState`).
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

    Two aggregates are kept in step with the lists, so :meth:`counts`
    and the protocol's absorption check cost O(k) and O(1): the colour
    :attr:`histogram` and the number of :attr:`alive` (not terminated)
    nodes.  The tick rules update both as they write; a write through a
    view recounts them.
    """

    #: per-node fields, in the argument order of
    #: :func:`~repro.protocols.async_plurality.apply_tick_block`.
    FIELDS = ("colors", "bit", "intermediate", "working_time", "real_time", "terminated")
    _DTYPES = (np.int64, bool, np.int64, np.int64, np.int64, bool)
    _DEFAULTS = (None, False, NO_COLOR, 0, 0, False)

    colors = _node_field("colors")
    bit = _node_field("bit")
    intermediate = _node_field("intermediate")
    working_time = _node_field("working_time")
    real_time = _node_field("real_time")
    terminated = _node_field("terminated")

    def __init__(
        self,
        colors,
        k: int,
        working_time=None,
        real_time=None,
        bit=None,
        intermediate=None,
        terminated=None,
        schedule: Any = None,
        buffers: Optional[List[Any]] = None,
        pending_targets: Optional[Dict[int, np.ndarray]] = None,
    ):
        colors = NodeArrayState(colors=colors, k=k).colors
        self.k = k
        n = colors.size
        given = (colors, bit, intermediate, working_time, real_time, terminated)
        self._views = {}
        for name, values, dtype, default in zip(self.FIELDS, given, self._DTYPES, self._DEFAULTS):
            if values is None:
                values = [default] * n
            else:
                values = np.asarray(values, dtype=dtype)
                if values.shape != (n,):
                    raise ConfigurationError(f"{name} must have shape ({n},), got {values.shape}")
                values = values.tolist()
            on_write = self._recount if name in ("colors", "terminated") else None
            self._views[name] = NodeField(values, dtype, on_write)
        self.schedule = schedule
        self.buffers = [] if buffers is None else buffers
        self.pending_targets = {} if pending_targets is None else pending_targets
        self.histogram: List[int] = []
        self.alive = n
        self._recount()

    def _recount(self) -> None:
        self.histogram[:] = np.bincount(self.colors.values, minlength=self.k).tolist()
        self.alive = self.terminated.values.count(False)

    def lists(self) -> List[List[Any]]:
        """The six per-node lists, in :attr:`FIELDS` order (the storage, not copies)."""
        return [self._views[name].values for name in self.FIELDS]

    @property
    def n(self) -> int:
        return len(self.colors.values)

    def counts(self) -> np.ndarray:
        """Raw counts vector as an array (O(k), from the histogram)."""
        return np.array(self.histogram, dtype=np.int64)

    def working_time_spread(self, quantile: float = 1.0) -> int:
        """Spread of working times among active nodes.

        With ``quantile=1.0`` this is max-min; smaller quantiles drop
        the tails, matching the paper's "all but o(n) nodes are within
        ``Delta`` of one another" notion (use e.g. ``quantile=0.99``).
        """
        active = np.array(
            [w for w, done in zip(self.working_time.values, self.terminated.values) if not done],
            dtype=np.int64,
        )
        if active.size == 0:
            return 0
        if quantile >= 1.0:
            return int(active.max() - active.min())
        lo = np.quantile(active, (1.0 - quantile) / 2.0)
        hi = np.quantile(active, 1.0 - (1.0 - quantile) / 2.0)
        return int(round(hi - lo))

    def copy(self) -> "AsyncNodeState":
        fields = {name: list(self._views[name].values) for name in self.FIELDS}
        return AsyncNodeState(
            k=self.k,
            schedule=self.schedule,
            buffers=deepcopy(self.buffers),
            pending_targets=dict(self.pending_targets),
            **fields,
        )

