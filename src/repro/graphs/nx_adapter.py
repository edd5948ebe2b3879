"""Adapter from :mod:`networkx` graphs to the :class:`Topology` API.

networkx is an optional dependency; importing this module without it
raises a clear error only when the adapter is actually used.

Imported graphs are converted to CSR form
(:class:`~repro.graphs.sparse.AdjacencyTopology`) **once, at
construction**: the edge list is pulled out of networkx in one pass and
sorted into offset/flat arrays with numpy (no per-node Python loop), so
converted graphs share the CSR graphs' vectorised
``sample_neighbors_block`` gather, and with it the hazard-batched tick
engines and the synchronous rounds.
"""

from __future__ import annotations

import numpy as np

from ..core.exceptions import TopologyError
from .sparse import AdjacencyTopology, _from_arcs

__all__ = ["from_networkx"]


def from_networkx(graph) -> AdjacencyTopology:
    """Build an :class:`AdjacencyTopology` from an undirected nx graph.

    Node labels may be arbitrary hashables; they are relabelled to
    ``0..n-1`` in sorted-by-insertion order.  Directed graphs and graphs
    with isolated nodes are rejected.
    """
    try:
        import networkx as nx  # noqa: F401
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise TopologyError("networkx is not installed; `pip install repro[graphs]`") from exc

    if graph.is_directed():
        raise TopologyError("only undirected graphs are supported")
    index = {label: i for i, label in enumerate(graph.nodes())}
    if graph.is_multigraph():
        # Parallel edges collapse under neighbour iteration; keep the
        # simple per-node path for this rare case.
        adjacency = [[index[v] for v in graph.neighbors(u)] for u in graph.nodes()]
        return AdjacencyTopology(adjacency)
    edges = np.array(
        [(index[u], index[v]) for u, v in graph.edges()], dtype=np.int64
    ).reshape(-1, 2)
    # Undirected: every edge contributes both directions; a self-loop
    # contributes a single adjacency entry (matching nx neighbour
    # iteration, which yields the node once).
    proper = edges[edges[:, 0] != edges[:, 1]]
    heads = np.concatenate([edges[:, 0], proper[:, 1]])
    tails = np.concatenate([edges[:, 1], proper[:, 0]])
    return _from_arcs(len(index), heads, tails)
