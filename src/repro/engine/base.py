"""Shared engine plumbing: stop conditions and run assembly.

Engines advance a protocol until a *stop condition* holds or a step
budget runs out.  The default condition is consensus (the event all the
paper's run-time theorems are about); :func:`near_consensus` expresses
the part-one goal of the asynchronous protocol (``c1 >= (1-eps) n``).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..api.registry import ParamSpec, register_stop
from ..core.colors import ColorConfiguration, assignment_from_counts
from ..core.exceptions import ConfigurationError
from ..core.results import RunResult, Trace
from ..graphs.topology import DynamicTopology, Topology

__all__ = [
    "materialize_initial",
    "require_static_topology",
    "StopCondition",
    "consensus_reached",
    "near_consensus",
    "plurality_fraction_at_least",
    "build_result",
]

#: A stop condition maps a colour-counts vector to "stop now?".
StopCondition = Callable[[np.ndarray], bool]


def materialize_initial(initial, rng: np.random.Generator):
    """Colour array + colour count for an engine's *initial* argument.

    A :class:`~repro.core.colors.ColorConfiguration` becomes a uniformly
    random node assignment with its counts (one RNG shuffle); an
    explicit colour array is validated and passed through with ``k``
    inferred from its largest label.  Shared by every agent-level
    engine so the two accepted initial-state forms cannot drift apart.
    """
    if isinstance(initial, ColorConfiguration):
        colors = assignment_from_counts(initial, rng=rng)
        return colors, initial.k
    colors = np.asarray(initial, dtype=np.int64)
    if colors.ndim != 1 or colors.size == 0:
        raise ConfigurationError("explicit colour arrays must be non-empty and 1-D")
    return colors, int(colors.max()) + 1


def require_static_topology(topology: Topology, model: str) -> None:
    """Refuse a :class:`~repro.graphs.topology.DynamicTopology` for *model*.

    The epoch clock of a dynamic topology is defined in sequential
    ticks, and only the sequential engine advances it.  A round-based
    or Poisson-clock engine would run on whatever epoch the object was
    last left at, so those engines (and the dispatcher) reject it.
    """
    if isinstance(topology, DynamicTopology):
        raise ConfigurationError(
            f"dynamic topologies advance on a tick-epoch clock; the {model!r} "
            "model is not supported (use model='sequential')"
        )


def consensus_reached(counts: np.ndarray) -> bool:
    """Stop when one colour holds every node."""
    return int(counts.max()) == int(counts.sum())


def near_consensus(epsilon: float) -> StopCondition:
    """Stop once the largest colour reaches ``(1 - epsilon) * n``.

    This is the paper's part-one goal for the asynchronous protocol
    (Section 3.1): grow ``c1`` to at least ``(1 - eps) n`` and hand over
    to the endgame.
    """
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")

    def condition(counts: np.ndarray) -> bool:
        return int(counts.max()) >= (1.0 - epsilon) * int(counts.sum())

    return condition


def plurality_fraction_at_least(fraction: float) -> StopCondition:
    """Stop once the plurality colour's share reaches *fraction*."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")

    def condition(counts: np.ndarray) -> bool:
        return int(counts.max()) >= fraction * int(counts.sum())

    return condition


register_stop(
    "consensus",
    lambda: consensus_reached,
    description="Stop when one colour holds every node (the theorems' event)",
)
register_stop(
    "near-consensus",
    near_consensus,
    params=[ParamSpec("epsilon", kind="float", required=True, doc="stop at c1 >= (1 - epsilon) n")],
    description="Stop once the largest colour reaches (1 - epsilon) n (part-one goal)",
)
register_stop(
    "plurality-fraction",
    plurality_fraction_at_least,
    params=[ParamSpec("fraction", kind="float", required=True, doc="stop at c1 >= fraction * n")],
    description="Stop once the plurality colour's share reaches the given fraction",
)


def build_result(
    converged: bool,
    initial_counts: np.ndarray,
    final_counts: np.ndarray,
    rounds: int,
    parallel_time: float,
    trace: Optional[Trace] = None,
    metadata: Optional[dict] = None,
) -> RunResult:
    """Assemble a :class:`RunResult`, deriving the winner from the counts.

    ``winner`` is reported whenever the run stopped with a *unique*
    plurality colour, even if the stop condition was weaker than full
    consensus; callers that require strict consensus should check
    ``result.final.is_consensus()``.
    """
    final = ColorConfiguration(np.asarray(final_counts, dtype=np.int64).tolist())
    initial = ColorConfiguration(np.asarray(initial_counts, dtype=np.int64).tolist())
    winner = final.plurality if converged and final.has_unique_plurality() else None
    return RunResult(
        converged=converged,
        winner=winner,
        rounds=int(rounds),
        parallel_time=float(parallel_time),
        initial=initial,
        final=final,
        trace=trace,
        metadata=metadata or {},
    )
