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
    EnsembleCountsProtocol,
    SequentialCountsProtocol,
    SequentialProtocol,
    SynchronousProtocol,
    TickFootprint,
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


class VoterCounts(CountsProtocol, EnsembleCountsProtocol):
    """Exact counts-level synchronous voter on ``K_n``."""

    name = "voter/counts"

    def init_counts(self, config: ColorConfiguration) -> np.ndarray:
        return np.asarray(config.counts, dtype=np.int64)

    def step(self, counts_state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        counts = counts_state
        n = int(counts.sum())
        k = counts.size
        new_counts = np.zeros(k, dtype=np.int64)
        base = counts.astype(float)
        for i in range(k):
            group = int(counts[i])
            if group == 0:
                continue
            probs = base.copy()
            probs[i] -= 1.0  # self-exclusion
            probs /= n - 1
            probs = np.clip(probs, 0.0, None)
            probs /= probs.sum()
            new_counts += rng.multinomial(group, probs)
        return new_counts

    def step_ensemble(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Advance R replications one round (mirrors :meth:`step` per
        row; one stacked multinomial per non-empty colour class)."""
        states = np.asarray(states, dtype=np.int64)
        reps, k = states.shape
        n = int(states[0].sum())
        new_counts = np.zeros_like(states)
        base = states.astype(float)
        probs = np.empty((reps, k))
        for i in range(k):
            groups = states[:, i]
            acting = np.flatnonzero(groups > 0)
            if acting.size == 0:
                continue
            np.copyto(probs, base)
            probs[:, i] -= 1.0  # self-exclusion
            probs /= n - 1
            np.clip(probs, 0.0, None, out=probs)
            probs /= probs.sum(axis=1, keepdims=True)
            new_counts[acting] += rng.multinomial(groups[acting], probs[acting])
        return new_counts

    def color_counts(self, counts_state: np.ndarray) -> np.ndarray:
        return counts_state


class VoterSequential(SequentialProtocol):
    """Tick-based pull voting for the asynchronous engines."""

    name = "voter/seq"
    # One state-independent uniform sample; adopts it unconditionally.
    tick_footprint = TickFootprint(samples=1, reads_own=False)
    tick_kernel = "voter"

    def tick_targets(self, state: NodeArrayState, node: int, topology: Topology, rng: np.random.Generator) -> np.ndarray:
        return topology.sample_neighbors(node, 1, rng)

    def tick_apply(self, state: NodeArrayState, node: int, observed_colors: np.ndarray) -> None:
        if len(observed_colors):
            state.colors[node] = observed_colors[0]

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
