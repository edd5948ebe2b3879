"""The complete graph ``K_n`` with O(1)-memory uniform sampling.

This is the topology every theorem in the paper is stated for.  A
neighbour of ``u`` is a uniform node different from ``u``; we sample by
drawing from ``0..n-2`` and shifting values ``>= u`` up by one, which is
exactly uniform over the ``n-1`` neighbours and vectorises cleanly.
"""

from __future__ import annotations

import numpy as np

from ..api.registry import register_topology
from ..core.exceptions import TopologyError
from .topology import Topology

__all__ = ["CompleteGraph"]


class CompleteGraph(Topology):
    """``K_n``: every pair of distinct nodes is connected."""

    def __init__(self, n: int):
        if n < 2:
            raise TopologyError(f"K_n needs at least 2 nodes, got {n}")
        self.n = int(n)

    def degree(self, node: int) -> int:
        self._check_node(node)
        return self.n - 1

    def sample_neighbors(self, node: int, count: int, rng: np.random.Generator) -> np.ndarray:
        self._check_node(node)
        draws = rng.integers(0, self.n - 1, size=count)
        return np.where(draws >= node, draws + 1, draws).astype(np.int64)

    def sample_neighbors_block(self, nodes: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        draws = rng.integers(0, self.n - 1, size=(nodes.size, count))
        shifted = np.where(draws >= nodes[:, None], draws + 1, draws)
        return shifted.astype(np.int64)

    def is_complete(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"CompleteGraph(n={self.n})"


register_topology(
    "complete",
    CompleteGraph,
    description="The paper's K_n: every pair of distinct nodes connected, O(1) uniform sampling",
)
