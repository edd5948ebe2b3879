"""Additional graph families for exploring the protocols off ``K_n``.

The paper's theorems are for the complete graph; these families let the
agent-based engines probe how the dynamics degrade on sparse and
irregular communication topologies (one of the example applications
does exactly that).  All constructors are self-contained — no networkx
required — and return :class:`~repro.graphs.sparse.AdjacencyTopology`.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import List, Set

import numpy as np

from ..api.registry import ParamSpec, register_topology
from ..core.exceptions import TopologyError
from ..core.rng import SeedLike, as_generator
from .sparse import AdjacencyTopology, _from_arcs, _from_rows

__all__ = ["hypercube", "star", "random_regular", "watts_strogatz", "barabasi_albert"]


def hypercube(dimension: int) -> AdjacencyTopology:
    """The ``d``-dimensional hypercube on ``2^d`` nodes."""
    if dimension < 1:
        raise TopologyError(f"dimension must be >= 1, got {dimension}")
    if dimension > 24:
        raise TopologyError(f"dimension {dimension} would allocate 2^{dimension} nodes")
    return _from_rows(np.arange(1 << dimension)[:, None] ^ (1 << np.arange(dimension)))


def star(n: int) -> AdjacencyTopology:
    """Star graph: node 0 is the hub, nodes 1..n-1 are leaves."""
    if n < 3:
        raise TopologyError(f"a star needs at least 3 nodes, got {n}")
    offsets = np.concatenate(([0], np.arange(n - 1, 2 * n - 1)))
    flat = np.concatenate((np.arange(1, n), np.zeros(n - 1, dtype=np.int64)))
    return AdjacencyTopology.from_csr(offsets, flat)


def random_regular(n: int, degree: int, seed: SeedLike = None, max_attempts: int = 20) -> AdjacencyTopology:
    """A uniform-ish random ``degree``-regular simple graph.

    Configuration model with **edge-switch repair**: stubs are paired
    uniformly, then every self-loop or duplicate edge is resolved by
    swapping endpoints with a uniformly random other pair (the standard
    repair used in practice; distributionally close to uniform for
    ``degree = O(sqrt n)`` and always yields a simple regular graph).

    At ``degree == n - 1`` the only such graph is ``K_n``; near it
    almost every switch would duplicate an edge, so when repair
    exhausts its attempts the result is ``K_n`` with sorted rows.
    """
    if degree < 1 or degree >= n:
        raise TopologyError(f"degree must be in 1..{n - 1}, got {degree}")
    if (n * degree) % 2 != 0:
        raise TopologyError(f"n * degree must be even (n={n}, degree={degree})")
    rng = as_generator(seed)
    for _ in range(max_attempts):
        stubs = np.repeat(np.arange(n), degree)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if _repair_pairing(pairs, n, rng):
            # Row u lists u's partners in the order u occurs in the pairs.
            return _from_arcs(n, pairs.ravel(), pairs[:, ::-1].ravel())
    if degree == n - 1:
        rows = np.tile(np.arange(n - 1), (n, 1))
        rows += rows >= np.arange(n)[:, None]
        return _from_rows(rows)
    raise TopologyError(
        f"failed to pair a simple {degree}-regular graph on {n} nodes in {max_attempts} attempts"
    )


def _repair_pairing(pairs: np.ndarray, n: int, rng: np.random.Generator, max_switches: int = None) -> bool:
    """Resolve self-loops/duplicates in-place via random edge switches.

    Edge ``{a, b}`` is keyed ``min * n + max``.  A switch only lowers
    the counts of existing keys and adds keys of count 1, so no good
    pair turns bad: after each switch the ``bad`` list is filtered,
    not rebuilt from every pair.
    """
    if max_switches is None:
        max_switches = 200 * len(pairs) + 1000

    def key(a: int, b: int) -> int:
        return a * n + b if a <= b else b * n + a

    low, high = pairs.min(axis=1), pairs.max(axis=1)
    keys, inverse, counts = np.unique(low * n + high, return_inverse=True, return_counts=True)
    edge_count = dict(zip(keys.tolist(), counts.tolist()))
    bad = np.flatnonzero((low == high) | (counts[inverse] > 1)).tolist()
    switches = 0
    while bad and switches < max_switches:
        switches += 1
        i = bad[-1]
        a, b = pairs[i].tolist()
        j = int(rng.integers(0, len(pairs)))
        if j == i:
            continue
        c, d = pairs[j].tolist()
        # Propose the cross-swap (a, c), (b, d).
        if a == c or b == d:
            continue
        new_one, new_two = key(a, c), key(b, d)
        # Two self-loops (a == b, c == d) would become one edge twice.
        if new_one == new_two or edge_count.get(new_one, 0) or edge_count.get(new_two, 0):
            continue
        for old in (key(a, b), key(c, d)):
            edge_count[old] -= 1
            if edge_count[old] == 0:
                del edge_count[old]
        pairs[i] = a, c
        pairs[j] = b, d
        edge_count[new_one] = 1
        edge_count[new_two] = 1
        bad = [k for k in bad if pairs[k, 0] == pairs[k, 1] or edge_count[key(*pairs[k].tolist())] > 1]
    return not bad


def watts_strogatz(n: int, neighbors: int, rewire_probability: float, seed: SeedLike = None) -> AdjacencyTopology:
    """Small-world graph: a ring lattice with random rewiring.

    Each node starts linked to its ``neighbors`` nearest ring
    neighbours on *each* side, so the degree before rewiring is
    ``2 * neighbors`` (any ``neighbors >= 1`` with ``2 * neighbors < n``
    is accepted).  Every lattice edge ``(u, v)``, ``u < v``, is rewired
    to ``(u, w)`` for a uniform non-duplicate ``w`` with probability
    *rewire_probability*.  Row order is the iteration order of the
    rewired edge set.

    Stream contract: the graph and the generator's later draws are
    those of one ``rng.random()`` per lattice edge in ``(u, v)`` order
    and, below *rewire_probability*, up to 20 ``rng.integers(0, n)``.
    They are replayed from raw 64-bit outputs, which holds for PCG64,
    PCG64DXSM, SFC64 and Philox with ``n < 2**32`` only.
    """
    if neighbors < 1 or 2 * neighbors >= n:
        raise TopologyError(f"need 1 <= neighbors < n/2, got {neighbors} for n={n}")
    if not 0.0 <= rewire_probability <= 1.0:
        raise TopologyError(f"rewire probability must be in [0, 1], got {rewire_probability}")
    bits = as_generator(seed).bit_generator
    kind = type(bits).__name__
    if kind not in ("PCG64", "PCG64DXSM", "SFC64", "Philox") or n >= 2**32:
        raise TopologyError(f"watts_strogatz replays PCG64, PCG64DXSM, SFC64 or Philox with n < 2**32, got {kind}")
    saved, ids, edges = bits.state, list(range(n)), n * neighbors
    # u's lattice edges (u, v), v > u, in sorted order, as tuples of the
    # ints of `ids`: the next `neighbors` nodes, then those across the wrap.
    rows = chain(
        (ids[u + 1:u + neighbors + 1] + ids[u + n - neighbors:] for u in range(neighbors)),
        zip(*(islice(ids, neighbors + d, None) for d in range(1, neighbors + 1))),
        (ids[u + 1:] for u in range(n - neighbors, n)),
    )
    lattice = chain.from_iterable(map(zip, map(repeat, ids), rows))
    raw, hits = np.empty(0, dtype=np.uint64), []

    def reach(size: int) -> None:
        # Draw the raw block up to *size*; `hits` holds where its doubles are < p.
        nonlocal raw
        if size > raw.size:
            more = bits.random_raw(max(size - raw.size, 2 * edges))
            hits.extend((raw.size + np.flatnonzero(more >> 11 < rewire_probability * 2.0**53)).tolist())
            raw = np.concatenate((raw, more))
    threshold, rewired = (2**32 - n) % n, set()
    has_half, half = saved["has_uint32"], saved["uinteger"]
    pos = done = j = 0  # raw outputs used, lattice edges taken, next hit
    while True:
        reach(pos + edges - done)
        while j < len(hits) and hits[j] < pos:
            j += 1
        if j == len(hits) or hits[j] - pos >= edges - done:
            break
        rewired.update(islice(lattice, hits[j] - pos))
        edge = next(lattice)
        done, pos, u = done + hits[j] - pos + 1, hits[j] + 1, edge[0]
        for _ in range(20):
            word = None
            while word is None or word * n & 0xFFFFFFFF < threshold:
                if has_half:
                    word, has_half = half, False
                else:
                    reach(pos + 1)
                    word, half, has_half = raw.item(pos) & 0xFFFFFFFF, raw.item(pos) >> 32, True
                    pos += 1
            w = word * n >> 32
            candidate = (u, w) if u < w else (w, u)
            if neighbors < abs(u - w) < n - neighbors and candidate not in rewired:
                edge = candidate
                break
        rewired.add(edge)
    rewired.update(lattice)
    raw = hits = None  # release the block before the CSR build
    bits.state = saved
    bits.random_raw(pos + edges - done, output=False)
    bits.state = {**bits.state, "has_uint32": int(has_half), "uinteger": half}
    pairs = np.fromiter(chain.from_iterable(rewired), dtype=np.int64, count=2 * len(rewired))
    # Rewiring keeps each edge's smaller endpoint, so only node n - 1
    # (the larger end of all its lattice edges) can end up isolated;
    # patch it back onto the ring so the sampling contract holds.
    if not (pairs == n - 1).any():
        pairs = np.append(pairs, [n - 1, 0])
    # Each edge (a, b) is the arcs a -> b and b -> a, as in random_regular.
    return _from_arcs(n, pairs, pairs.reshape(-1, 2)[:, ::-1].ravel())


def barabasi_albert(n: int, attachments: int, seed: SeedLike = None) -> AdjacencyTopology:
    """Preferential attachment: each new node links to ``attachments``
    existing nodes chosen proportionally to their current degree."""
    if attachments < 1:
        raise TopologyError(f"attachments must be >= 1, got {attachments}")
    if n <= attachments:
        raise TopologyError(f"need n > attachments, got n={n}, attachments={attachments}")
    rng = as_generator(seed)
    adjacency: List[List[int]] = [[] for _ in range(n)]
    # Seed clique over the first `attachments + 1` nodes.
    seed_size = attachments + 1
    repeated: List[int] = []  # node id repeated once per incident edge
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            adjacency[u].append(v)
            adjacency[v].append(u)
            repeated.extend((u, v))
    for u in range(seed_size, n):
        targets: Set[int] = set()
        while len(targets) < attachments:
            targets.add(int(repeated[rng.integers(0, len(repeated))]))
        for v in targets:
            adjacency[u].append(v)
            adjacency[v].append(u)
            repeated.extend((u, v))
    return AdjacencyTopology(adjacency)


@register_topology(
    "hypercube",
    description="The d-dimensional hypercube; n must be a power of two",
)
def _hypercube_of_n(n: int) -> AdjacencyTopology:
    """Build the hypercube whose ``2^d`` node count equals *n*."""
    dimension = max(n - 1, 1).bit_length()
    if n < 2 or (1 << dimension) != n:
        raise TopologyError(f"hypercube needs n = 2^d, got n={n}")
    return hypercube(dimension)


register_topology(
    "star",
    star,
    description="Star graph: one hub, n-1 leaves",
)


@register_topology(
    "random-regular",
    params=[
        ParamSpec("degree", kind="int", required=True, doc="common node degree"),
        ParamSpec("graph_seed", kind="int", doc="seed for the pairing model"),
    ],
    description="Random degree-regular simple graph (pairing model)",
)
def _random_regular_of_n(n: int, degree: int, graph_seed: int = None) -> AdjacencyTopology:
    """Registry adapter for :func:`random_regular`."""
    return random_regular(n, degree, seed=graph_seed)


@register_topology(
    "watts-strogatz",
    params=[
        ParamSpec(
            "neighbors",
            kind="int",
            required=True,
            doc="lattice neighbours on each side (degree 2 * neighbors before rewiring)",
        ),
        ParamSpec("rewire_probability", kind="float", required=True, doc="per-edge rewiring probability"),
        ParamSpec("graph_seed", kind="int", doc="seed for the rewiring"),
    ],
    description="Watts-Strogatz small world: ring lattice with random rewiring",
)
def _watts_strogatz_of_n(
    n: int, neighbors: int, rewire_probability: float, graph_seed: int = None
) -> AdjacencyTopology:
    """Registry adapter for :func:`watts_strogatz`."""
    return watts_strogatz(n, neighbors, rewire_probability, seed=graph_seed)


@register_topology(
    "barabasi-albert",
    params=[
        ParamSpec("attachments", kind="int", required=True, doc="edges added per arriving node"),
        ParamSpec("graph_seed", kind="int", doc="seed for preferential attachment"),
    ],
    description="Barabasi-Albert preferential attachment (scale-free degrees)",
)
def _barabasi_albert_of_n(n: int, attachments: int, graph_seed: int = None) -> AdjacencyTopology:
    """Registry adapter for :func:`barabasi_albert`."""
    return barabasi_albert(n, attachments, seed=graph_seed)
