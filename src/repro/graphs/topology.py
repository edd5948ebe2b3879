"""Topology abstraction.

The protocols in the paper live on the complete graph ``K_n`` and only
ever *sample neighbours uniformly at random* — they never enumerate
edges.  The :class:`Topology` interface therefore exposes exactly that
operation (scalar and vectorised), which lets the complete graph be
represented in O(1) memory and lets the same protocol code run on
sparse graphs for exploratory use.

All sampling is **with replacement** and, on ``K_n``, matches the
paper's model where a node may sample itself is *excluded*: the paper
says "samples some neighbors", and on a clique the neighbours of ``u``
are everyone but ``u``.  ``CompleteGraph`` therefore excludes self-
samples; sparse topologies sample uniformly from the adjacency list.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..core.exceptions import TopologyError

__all__ = ["Topology", "DynamicTopology"]


class Topology(ABC):
    """Uniform neighbour sampling over a fixed node set ``0..n-1``."""

    #: number of nodes; concrete classes must set this in ``__init__``.
    n: int

    # ------------------------------------------------------------------
    # required interface
    # ------------------------------------------------------------------
    @abstractmethod
    def sample_neighbor(self, node: int, rng: np.random.Generator) -> int:
        """Return one uniformly random neighbour of *node*."""

    @abstractmethod
    def sample_neighbors(self, node: int, count: int, rng: np.random.Generator) -> np.ndarray:
        """Return *count* i.i.d. uniform neighbours of *node* (with replacement)."""

    @abstractmethod
    def degree(self, node: int) -> int:
        """Number of neighbours of *node*."""

    # ------------------------------------------------------------------
    # vectorised interface (default: loop; complete graph overrides)
    # ------------------------------------------------------------------
    def sample_neighbors_many(self, nodes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One uniform neighbour for each entry of *nodes* (vectorised hook)."""
        return np.array([self.sample_neighbor(int(u), rng) for u in nodes], dtype=np.int64)

    def sample_neighbor_pairs(self, nodes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Two i.i.d. uniform neighbours for each entry of *nodes*, shape ``(len, 2)``."""
        return self.sample_neighbors_block(nodes, 2, rng)

    def sample_neighbors_block(self, nodes: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
        """*count* i.i.d. uniform neighbours per entry of *nodes*, shape ``(len, count)``.

        The presampling hook of the hazard-batched tick paths: one call
        yields the full ``(B, samples)`` target-identity matrix of a
        tick block.  The default draws column by column through
        :meth:`sample_neighbors_many`; ``CompleteGraph`` and
        ``AdjacencyTopology`` override it with a single block draw.
        """
        columns = [self.sample_neighbors_many(nodes, rng) for _ in range(count)]
        return np.stack(columns, axis=1)

    # ------------------------------------------------------------------
    # shared validation helpers
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise TopologyError(f"node {node} out of range 0..{self.n - 1}")

    def is_complete(self) -> bool:
        """True for ``K_n``; the counts-based engines require this."""
        return False

    def __len__(self) -> int:
        return self.n


class DynamicTopology(Topology):
    """A topology whose edge set changes at fixed tick *epochs*.

    The hazard-batched fast paths presample a whole block of target
    identities from a single graph snapshot, which is only exact while
    the graph does not change under the block.  Dynamic topologies make
    that contract explicit:

    * the edge set is a **deterministic pure function of the epoch
      index** — :meth:`advance_to` materialises epoch ``e`` from the
      initial graph and the topology's own churn seed, never from an
      engine RNG, so replaying any epoch (forwards or from scratch)
      yields the identical graph;
    * the graph is constant within an epoch of :attr:`epoch_ticks`
      sequential ticks; the tick engines cut their presampling blocks
      at epoch boundaries (tick ``t`` samples from epoch ``t //
      epoch_ticks``), which keeps the hazard-free-prefix argument —
      and hence bit-exactness against the per-tick reference loop on
      the same draws — intact.

    Only the sequential model drives dynamic topologies: the epoch
    clock is defined in ticks, so the continuous and synchronous
    engines (and :func:`repro.engine.dispatch.fastest_engine` for those
    models) refuse them at construction.
    """

    #: epoch length in sequential ticks; the graph is constant within
    #: an epoch.  Concrete classes must set this in ``__init__``.
    epoch_ticks: int

    @abstractmethod
    def advance_to(self, epoch: int) -> None:
        """Materialise the edge set of epoch *epoch* (0 = initial graph).

        Must be callable with any non-negative epoch in any order —
        engines call ``advance_to(0)`` at run start so replications on
        one shared topology object stay independent.
        """
