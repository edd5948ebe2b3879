"""Sparse topologies stored in CSR (compressed adjacency) form.

The paper's results are for ``K_n``; these topologies exist so the same
protocol code can be explored on sparse communication graphs (one of
the example applications runs Two-Choices on a torus).  Construction
helpers build rings, 2-D tori and Erdős–Rényi graphs directly without
requiring networkx.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Sequence

import numpy as np

from ..api.registry import ParamSpec, register_topology
from ..core.exceptions import TopologyError
from ..core.rng import SeedLike, as_generator
from .topology import Topology

__all__ = ["AdjacencyTopology", "ring", "torus", "erdos_renyi"]


class AdjacencyTopology(Topology):
    """A general undirected graph with uniform neighbour sampling.

    Parameters
    ----------
    neighbors:
        For each node, the sequence of its neighbours.  Every node must
        have degree >= 1 (isolated nodes cannot participate in sampling
        protocols and are rejected).
    """

    def __init__(self, neighbors: Sequence[Sequence[int]]):
        degrees = np.fromiter(map(len, neighbors), dtype=np.int64, count=len(neighbors))
        offsets = np.zeros(degrees.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        flat = np.fromiter(chain.from_iterable(neighbors), dtype=np.int64, count=int(offsets[-1]))
        self._adopt_csr(offsets, flat)

    def degree(self, node: int) -> int:
        self._check_node(node)
        return int(self._degrees[node])

    def neighbors_of(self, node: int) -> np.ndarray:
        """The adjacency row of *node* (read-only view)."""
        self._check_node(node)
        return self._flat[self._offsets[node]:self._offsets[node + 1]]

    def sample_neighbors(self, node: int, count: int, rng: np.random.Generator) -> np.ndarray:
        self._check_node(node)
        deg = self._degrees[node]
        picks = rng.integers(0, deg, size=count)
        return self._flat[self._offsets[node] + picks]

    def sample_neighbors_block(self, nodes: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
        # One uniform draw per (node, sample) slot, one CSR gather: the
        # presampling primitive of tick blocks and rounds.  On
        # regular graphs (ring, torus, hypercube, random-regular) the
        # row offsets are arithmetic, so the bounded-integer draw skips
        # the float scaling and the offsets gather entirely.
        nodes = np.asarray(nodes, dtype=np.int64)
        degree = self._uniform_degree
        if degree is not None:
            picks = rng.integers(0, degree, size=(nodes.size, count))
            return self._flat[nodes[:, None] * degree + picks]
        degs = self._degrees[nodes]
        picks = (rng.random((nodes.size, count)) * degs[:, None]).astype(np.int64)
        return self._flat[self._offsets[nodes][:, None] + picks]

    @classmethod
    def from_csr(cls, offsets: np.ndarray, flat: np.ndarray) -> "AdjacencyTopology":
        """Wrap prebuilt CSR arrays (``offsets: int64[n + 1]``, ``flat``)
        without a per-node Python loop — the constructor every builder
        finishes through.  Validates the invariants ``__init__`` does:
        at least two nodes, every degree >= 1, neighbours in ``0..n-1``.
        """
        topology = cls.__new__(cls)
        topology._adopt_csr(offsets, flat)
        return topology

    def _adopt_csr(self, offsets: np.ndarray, flat: np.ndarray) -> None:
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        flat = np.ascontiguousarray(flat, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size < 3:
            raise TopologyError(f"need at least 2 nodes, got {max(offsets.size - 1, 0)}")
        n = offsets.size - 1
        if offsets[0] != 0 or offsets[-1] != flat.size:
            raise TopologyError("offsets must start at 0 and end at len(flat)")
        degrees = np.diff(offsets)
        if (degrees < 0).any():
            raise TopologyError("offsets must be non-decreasing")
        if (degrees == 0).any():
            bad = int(np.argmax(degrees == 0))
            raise TopologyError(f"node {bad} is isolated; sampling protocols need degree >= 1")
        if flat.size and (flat.min() < 0 or flat.max() >= n):
            slot = np.argmax((flat < 0) | (flat >= n))
            bad = int(np.searchsorted(offsets, slot, side="right")) - 1
            raise TopologyError(f"node {bad} has a neighbour outside 0..{n - 1}")
        self.n = n
        self._offsets = offsets
        self._flat = flat
        self._degrees = degrees
        self._uniform_degree = int(degrees[0]) if (degrees == degrees[0]).all() else None


def _from_rows(rows: np.ndarray) -> AdjacencyTopology:
    """CSR of a regular graph given as an ``(n, degree)`` row array."""
    n, degree = rows.shape
    return AdjacencyTopology.from_csr(np.arange(0, n * degree + 1, degree), rows.ravel())


def _from_arcs(n: int, heads: np.ndarray, tails: np.ndarray) -> AdjacencyTopology:
    """CSR of the arcs ``heads[i] -> tails[i]``; row ``u`` keeps its arcs' order."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=offsets[1:])
    # Distinct keys: the default (unstable, faster) sort is the stable order.
    keys = heads * heads.size
    keys += np.arange(heads.size)
    return AdjacencyTopology.from_csr(offsets, tails[np.argsort(keys)])


def ring(n: int) -> AdjacencyTopology:
    """Cycle graph ``C_n`` (each node linked to its two cyclic neighbours)."""
    if n < 3:
        raise TopologyError(f"a ring needs at least 3 nodes, got {n}")
    nodes = np.arange(n)
    return _from_rows(np.stack([(nodes - 1) % n, (nodes + 1) % n], axis=1))


def torus(rows: int, cols: int) -> AdjacencyTopology:
    """2-D torus grid of ``rows x cols`` nodes with 4-neighbourhoods."""
    if rows < 3 or cols < 3:
        raise TopologyError(f"torus sides must be >= 3, got {rows}x{cols}")
    n = rows * cols
    nodes = np.arange(n)
    row_start, c = nodes - nodes % cols, nodes % cols
    left, right = row_start + (c - 1) % cols, row_start + (c + 1) % cols
    return _from_rows(np.stack([(nodes - cols) % n, (nodes + cols) % n, left, right], axis=1))


def erdos_renyi(n: int, p: float, seed: SeedLike = None, ensure_min_degree: int = 1) -> AdjacencyTopology:
    """Erdős–Rényi graph ``G(n, p)``.

    Because sampling protocols require degree >= 1, nodes that end up
    isolated are patched with ``ensure_min_degree`` random edges (set it
    to 0 to get a hard failure instead).  ``ensure_min_degree`` must lie
    in ``0..n-1``: no simple graph reaches a higher degree.
    """
    if not 0.0 <= p <= 1.0:
        raise TopologyError(f"edge probability must be in [0, 1], got {p}")
    if not 0 <= ensure_min_degree <= n - 1:
        raise TopologyError(f"min degree must be in 0..{n - 1}, got {ensure_min_degree}")
    rng = as_generator(seed)
    adjacency: List[List[int]] = [[] for _ in range(n)]
    # Vectorised upper-triangle edge draws, processed in row blocks to
    # bound memory at O(n) per block.
    for u in range(n - 1):
        targets = np.arange(u + 1, n)
        hits = targets[rng.random(targets.size) < p]
        for v in hits:
            adjacency[u].append(int(v))
            adjacency[int(v)].append(u)
    for u in range(n):
        while len(adjacency[u]) < ensure_min_degree:
            v = int(rng.integers(0, n))
            if v != u and v not in adjacency[u]:
                adjacency[u].append(v)
                adjacency[v].append(u)
    return AdjacencyTopology(adjacency)


register_topology(
    "ring",
    ring,
    description="Cycle graph C_n",
)


@register_topology(
    "torus",
    params=[ParamSpec("rows", kind="int", doc="grid rows (default: the most square factorisation of n)")],
    description="2-D torus grid with 4-neighbourhoods; n must factor as rows x cols",
)
def _torus_of_n(n: int, rows: int = None) -> AdjacencyTopology:
    """Build a ``rows x (n / rows)`` torus for a node budget of *n*."""
    if rows is None:
        rows = next(r for r in range(int(np.sqrt(n)), 0, -1) if n % r == 0)
    if rows < 1 or n % rows != 0:
        raise TopologyError(f"torus rows={rows} does not divide n={n}")
    return torus(rows, n // rows)


@register_topology(
    "erdos-renyi",
    params=[
        ParamSpec("p", kind="float", required=True, doc="edge probability"),
        ParamSpec("graph_seed", kind="int", doc="seed for the random edge set"),
        ParamSpec("min_degree", kind="int", default=1, doc="patch isolated nodes up to this degree (0: fail)"),
    ],
    description="Erdos-Renyi G(n, p) with isolated nodes patched to min degree",
)
def _erdos_renyi_of_n(n: int, p: float, graph_seed: int = None, min_degree: int = 1) -> AdjacencyTopology:
    """Registry adapter for :func:`erdos_renyi`."""
    return erdos_renyi(n, p, seed=graph_seed, ensure_min_degree=min_degree)
