"""Core model types shared by every subsystem.

Public surface:

* :class:`~repro.core.colors.ColorConfiguration` — immutable opinion
  counts with the paper's bias quantities.
* :class:`~repro.core.state.NodeArrayState` /
  :class:`~repro.core.state.AsyncNodeState` — agent-level state arrays.
* :class:`~repro.core.results.RunResult` / :class:`~repro.core.results.Trace`
  — run outcomes and snapshots.
* :mod:`~repro.core.rng` — seeding and stream splitting.
* the exception hierarchy in :mod:`~repro.core.exceptions`.
"""

from .colors import ColorConfiguration, assignment_from_counts, counts_from_assignment
from .exceptions import (
    ConfigurationError,
    ExperimentError,
    ReproError,
    ScheduleError,
    TopologyError,
)
from .results import RunResult, Trace, TracePoint
from .rng import as_generator, random_seed, spawn_seed_sequences, spawn_seeds, split
from .state import NO_COLOR, AsyncNodeState, NodeArrayState

__all__ = [
    "ColorConfiguration",
    "assignment_from_counts",
    "counts_from_assignment",
    "ConfigurationError",
    "ExperimentError",
    "ReproError",
    "ScheduleError",
    "TopologyError",
    "RunResult",
    "Trace",
    "TracePoint",
    "as_generator",
    "random_seed",
    "spawn_seeds",
    "spawn_seed_sequences",
    "split",
    "NO_COLOR",
    "AsyncNodeState",
    "NodeArrayState",
]
