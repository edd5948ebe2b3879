"""Trace analysis: convergence times, amplification, synchrony summaries.

These helpers post-process :class:`~repro.core.results.Trace` objects
(counts, plus the asynchronous protocol's per-point working-time
spread) into the scalar observables the experiments report.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.exceptions import ConfigurationError
from ..core.results import RunResult, Trace

__all__ = [
    "time_to_fraction",
    "ratio_trace",
    "per_phase_ratio_growth",
    "spread_trace",
    "synchrony_summary",
]


def time_to_fraction(trace: Trace, fraction: float) -> Optional[float]:
    """First snapshot time at which the plurality share reaches *fraction*.

    Returns ``None`` when the trace never gets there.  Granularity is
    the trace's recording interval.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    matrix = trace.count_matrix()
    if matrix.size == 0:
        return None
    totals = matrix.sum(axis=1)
    shares = matrix.max(axis=1) / totals
    hits = np.flatnonzero(shares >= fraction)
    if hits.size == 0:
        return None
    return float(trace.points[int(hits[0])].time)


def ratio_trace(trace: Trace) -> np.ndarray:
    """``c1 / c2`` (largest over second largest) at every snapshot.

    Snapshots where ``c2 = 0`` yield ``inf``.
    """
    matrix = trace.count_matrix().astype(float)
    if matrix.size == 0:
        return np.empty(0)
    ordered = np.sort(matrix, axis=1)[:, ::-1]
    if ordered.shape[1] == 1:
        return np.full(ordered.shape[0], np.inf)
    with np.errstate(divide="ignore"):
        return np.where(ordered[:, 1] > 0, ordered[:, 0] / np.maximum(ordered[:, 1], 1e-300), np.inf)


def per_phase_ratio_growth(ratios: Sequence[float]) -> List[float]:
    """Exponents ``log r_{p+1} / log r_p`` between consecutive phases.

    The paper predicts values approaching 2 (quadratic amplification,
    experiment T5) while the ratios remain moderate; saturation (``c2``
    hitting zero) truncates the series.
    """
    growth = []
    for before, after in zip(ratios, ratios[1:]):
        if not np.isfinite(before) or not np.isfinite(after) or before <= 1.0:
            break
        growth.append(float(np.log(after) / np.log(before)))
    return growth


def spread_trace(result: RunResult, until_parallel_time: Optional[float] = None) -> List[Dict]:
    """The async run's working-time spread samples, oldest first.

    One ``{"time": ..., **fields}`` entry per trace point after time 0
    whose protocol fields carry a spread (see
    :meth:`~repro.protocols.async_plurality.AsyncPluralityProtocol.trace_fields`;
    points after every node terminated carry none).  Pass
    ``until_parallel_time`` to drop later points.
    """
    if result.trace is None:
        return []
    return [
        {"time": point.time, **point.fields}
        for point in result.trace
        if point.time > 0
        and point.fields is not None
        and "spread" in point.fields
        and (until_parallel_time is None or point.time <= until_parallel_time)
    ]


def synchrony_summary(result: RunResult, until_parallel_time: Optional[float] = None) -> Dict:
    """Aggregate the async run's working-time :func:`spread_trace`.

    Returns the worst and mean full spread, the worst core (99%) spread
    and the worst fraction of poorly synchronised nodes — the
    quantities Theorem 1.3's weak-synchronicity notion bounds.

    Pass ``until_parallel_time`` = the schedule's ``part_one_length``
    to restrict the summary to part one, where the Sync Gadget is
    active (the endgame intentionally stops synchronising).
    """
    entries = spread_trace(result, until_parallel_time)
    if not entries:
        return {
            "samples": 0,
            "max_spread": None,
            "mean_spread": None,
            "max_core_spread": None,
            "max_poor_fraction": None,
        }
    spreads = np.array([entry["spread"] for entry in entries], dtype=float)
    cores = np.array([entry["spread_core"] for entry in entries], dtype=float)
    poor = np.array([entry["poor_fraction"] for entry in entries], dtype=float)
    return {
        "samples": int(spreads.size),
        "max_spread": float(spreads.max()),
        "mean_spread": float(spreads.mean()),
        "max_core_spread": float(cores.max()),
        "max_poor_fraction": float(poor.max()),
    }
