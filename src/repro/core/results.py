"""Run results and trace records.

Every engine returns a :class:`RunResult`: what colour won (if any), how
long it took in the engine's natural time unit *and* in parallel time,
and an optional :class:`Trace` of intermediate configurations for
plotting/analysis.  Results are plain data with a ``to_dict`` for the
JSON result store in :mod:`repro.bench.store`.

Time units
----------
``rounds``
    Synchronous engines: number of synchronous rounds executed.
``ticks``
    Sequential engine: number of individual node activations.
``parallel_time``
    The unit all theorems are phrased in.  For synchronous engines it
    equals ``rounds``; for the sequential engine it is ``ticks / n``
    (each node ticks once per unit of time in expectation); for the
    continuous engine it is real Poisson-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .colors import ColorConfiguration

__all__ = ["TracePoint", "Trace", "RunResult"]


@dataclass(frozen=True)
class TracePoint:
    """One snapshot along a run.

    ``fields`` holds what the protocol's ``trace_fields`` hook reported
    at this instant (``None`` for protocols without one), e.g. the
    asynchronous protocol's working-time spread and terminated count.
    """

    time: float
    counts: tuple
    fields: Optional[Dict] = None

    @property
    def configuration(self) -> ColorConfiguration:
        return ColorConfiguration(self.counts)


@dataclass
class Trace:
    """Ordered list of snapshots recorded during a run."""

    points: List[TracePoint] = field(default_factory=list)

    def record(self, time: float, counts, fields: Optional[Dict] = None) -> None:
        self.points.append(TracePoint(time=float(time), counts=tuple(int(c) for c in counts), fields=fields))

    def times(self) -> np.ndarray:
        return np.array([p.time for p in self.points], dtype=float)

    def count_matrix(self) -> np.ndarray:
        """``(len(points), k)`` matrix of counts over time."""
        if not self.points:
            return np.empty((0, 0), dtype=np.int64)
        return np.array([p.counts for p in self.points], dtype=np.int64)

    def bias_trace(self) -> np.ndarray:
        """Additive bias ``c1 - c2`` at every snapshot."""
        matrix = self.count_matrix()
        if matrix.size == 0:
            return np.empty(0, dtype=np.int64)
        ordered = np.sort(matrix, axis=1)[:, ::-1]
        if ordered.shape[1] == 1:
            return ordered[:, 0]
        return ordered[:, 0] - ordered[:, 1]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@dataclass
class RunResult:
    """Outcome of a single protocol execution.

    Attributes
    ----------
    converged:
        Whether the convergence predicate (consensus by default) held
        before the step budget ran out.
    winner:
        Winning colour id, or ``None`` if the run did not converge.
    rounds:
        Engine-native step count (rounds for synchronous engines, ticks
        for sequential, events for continuous).
    parallel_time:
        Time in the unit of the theorems (see module docstring).
    initial:
        The initial colour configuration.
    final:
        The final colour configuration.
    plurality_preserved:
        ``winner`` equals the initial plurality colour (``False`` when
        not converged or the initial plurality was not unique).
    trace:
        Optional sequence of snapshots.
    metadata:
        Free-form engine/protocol-specific extras (phase boundaries,
        working-time spreads, endgame entry time, ...).
    """

    converged: bool
    winner: Optional[int]
    rounds: int
    parallel_time: float
    initial: ColorConfiguration
    final: ColorConfiguration
    trace: Optional[Trace] = None
    metadata: Dict = field(default_factory=dict)

    @property
    def plurality_preserved(self) -> bool:
        if not self.converged or self.winner is None:
            return False
        if not self.initial.has_unique_plurality():
            return False
        return self.winner == self.initial.plurality

    def to_dict(self) -> Dict:
        """JSON-serialisable summary (trace omitted by design: bulky)."""
        return {
            "converged": bool(self.converged),
            "winner": None if self.winner is None else int(self.winner),
            "rounds": int(self.rounds),
            "parallel_time": float(self.parallel_time),
            "initial_counts": list(self.initial.counts),
            "final_counts": list(self.final.counts),
            "plurality_preserved": self.plurality_preserved,
            "metadata": _jsonify(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output.

        The round trip is value-exact for everything ``to_dict``
        carries: the trace stays dropped, ``plurality_preserved`` is a
        property recomputed from the rebuilt fields (and equals the
        stored flag by construction), and metadata comes back in its
        JSON-normalised form — so ``from_dict(p).to_dict() == p``.
        """
        return cls(
            converged=bool(payload["converged"]),
            winner=None if payload["winner"] is None else int(payload["winner"]),
            rounds=int(payload["rounds"]),
            parallel_time=float(payload["parallel_time"]),
            initial=ColorConfiguration(payload["initial_counts"]),
            final=ColorConfiguration(payload["final_counts"]),
            metadata=dict(payload.get("metadata") or {}),
        )


def _jsonify(value):
    """Recursively coerce numpy scalars/arrays into JSON-friendly types."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value
