"""The Voter model (pull voting) — classic baseline.

A node samples a single neighbour and adopts its colour
unconditionally.  Voter solves *consensus* but not *plurality*
consensus: on ``K_n`` the probability that colour ``j`` wins equals its
initial fraction ``c_j / n``, and the expected time to consensus is
``Theta(n)`` — both properties the introduction's motivation for
Two-Choices implicitly contrasts against, and both measurable with this
implementation (experiment T11).
"""

from __future__ import annotations

import numpy as np

from ..api.registry import register_protocol
from ..core.colors import ColorConfiguration
from ..core.state import NodeArrayState
from ..graphs.topology import Topology
from .base import (
    CountsProtocol,
    SequentialCountsProtocol,
    SequentialProtocol,
    SynchronousProtocol,
    TickFootprint,
    draw_classes,
    self_excluded_sample_probabilities_ensemble,
)

__all__ = ["VoterSynchronous", "VoterCounts", "VoterSequential", "VoterSequentialCounts"]


class VoterSynchronous(SynchronousProtocol):
    """Agent-based synchronous pull voting."""

    name = "voter/sync"

    def round_update(self, state: NodeArrayState, topology: Topology, rng: np.random.Generator) -> None:
        nodes = np.arange(state.n, dtype=np.int64)
        targets = topology.sample_neighbors_many(nodes, rng)
        state.colors = state.colors[targets]


class VoterCounts(CountsProtocol):
    """Exact counts-level synchronous voter on ``K_n``.

    A colour-``i`` node adopts its sample, so its class moves by one
    multinomial over the self-excluded sample distribution.
    """

    name = "voter/counts"

    def init_counts(self, config: ColorConfiguration) -> np.ndarray:
        return np.asarray(config.counts, dtype=np.int64)

    def step_ensemble(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        q = self_excluded_sample_probabilities_ensemble(states)
        q /= q.sum(axis=-1, keepdims=True)
        return draw_classes(rng, states, q).sum(axis=0)


class VoterSequential(SequentialProtocol):
    """Tick-based pull voting for the asynchronous engines."""

    name = "voter/seq"
    # One state-independent uniform sample; adopts it unconditionally.
    tick_footprint = TickFootprint(samples=1, reads_own=False)
    tick_kernel = "voter"

    def tick_targets(self, state: NodeArrayState, node: int, topology: Topology, rng: np.random.Generator) -> np.ndarray:
        return topology.sample_neighbors(node, 1, rng)

    def tick_rule(self, state: NodeArrayState, colors: list, nodes: list, columns: list) -> list:
        written = []
        for node, target in zip(nodes, columns[0]):
            seen = colors[target]
            if seen != colors[node]:
                colors[node] = seen
                written.append(node)
        return written

    def tick_values(self, state: NodeArrayState, own: np.ndarray, observed: np.ndarray) -> np.ndarray:
        return observed[:, 0]

    def as_sequential_counts(self) -> "VoterSequentialCounts":
        return VoterSequentialCounts()


class VoterSequentialCounts(SequentialCountsProtocol):
    """Exact counts-level tick law of sequential Voter on ``K_n``.

    The acting node simply adopts its sample, so ``P[i] = q`` — the
    self-excluded sample distribution of a colour-``i`` node.
    """

    name = "voter/seq-counts"

    def init_counts(self, config: ColorConfiguration) -> np.ndarray:
        return np.asarray(config.counts, dtype=np.int64)

    def tick_transition_matrices(self, states: np.ndarray) -> np.ndarray:
        return self_excluded_sample_probabilities_ensemble(states)


register_protocol(
    "voter",
    description="Adopt one uniform neighbour's colour unconditionally (Theta(n) baseline)",
    counts=VoterCounts,
    synchronous=VoterSynchronous,
    sequential=VoterSequential,
)
