"""Byte-level pins of the CSR arrays every graph builder produces.

Each case builds one graph and hashes its ``_offsets`` and ``_flat``
arrays (SHA-256 over the int64 bytes, offsets first).  The hash covers
the degree sequence, the neighbour sets *and* the order inside each
row: neighbour sampling draws a slot index into the row, so a builder
that emits the same graph with its rows permuted changes every seeded
payload on that topology.  A rewrite of a builder must keep these
hashes, i.e. stay byte-identical per ``graph_seed``.

The random families run at ``n >= 2e4``.  Small cases cover the
corners: dense random-regular graphs (n=50, degree 10; n=12, degree 9)
make the pairing repair do many edge switches, a crowded
Watts-Strogatz graph exhausts its rewiring attempts, and seed 13 of
the ``neighbors=1, p=0.9`` graph isolates node ``n - 1`` and so takes
the isolated-node patch.
"""

import hashlib

import pytest

from repro.api import TOPOLOGIES
from repro.graphs import (
    AdjacencyTopology,
    barabasi_albert,
    erdos_renyi,
    hypercube,
    random_regular,
    ring,
    star,
    torus,
    watts_strogatz,
)


def _csr_digest(topology: AdjacencyTopology) -> str:
    digest = hashlib.sha256()
    digest.update(topology._offsets.astype("<i8").tobytes())
    digest.update(topology._flat.astype("<i8").tobytes())
    return digest.hexdigest()


def _churned(name, params, n):
    topology = TOPOLOGIES.build(name, params, n)
    topology.advance_to(3)
    return topology


def _nx_torus():
    nx = pytest.importorskip("networkx")
    return nx.grid_2d_graph(30, 40, periodic=True)


def _nx_multigraph():
    nx = pytest.importorskip("networkx")
    graph = nx.MultiGraph()
    graph.add_edges_from([(u, (u * 7 + 3) % 500) for u in range(500)])
    graph.add_edges_from([(u, (u + 1) % 500) for u in range(500)])
    graph.add_edges_from([(u, (u + 1) % 500) for u in range(0, 500, 5)])
    return graph


def _from_networkx(build):
    from repro.graphs import from_networkx

    return lambda: from_networkx(build())


#: (case id, builder, sha256 of offsets + flat).
GRAPH_PINS = [
    (
        "ring-20011",
        lambda: ring(20_011),
        "988d728a716ca18ee640654c1ce223890258ce77c607f93716cd406d35cb06c0",
    ),
    (
        "torus-150x140",
        lambda: torus(150, 140),
        "deeee425f1b9ecc99e52fcc14db19cb3dc25416a6e7d0897e77e3e0df609e2dc",
    ),
    (
        "torus-registry-20000",
        lambda: TOPOLOGIES.build("torus", {}, 20_000),
        "0e551802afd683977daea55e99e576124288ed8b37b618f9169552b78864ffa0",
    ),
    (
        "hypercube-14",
        lambda: hypercube(14),
        "a794670a464408fde5087ab683b2385ad72237bc23d59cf0b7524e121c804b51",
    ),
    (
        "star-20000",
        lambda: star(20_000),
        "4c1e72c2fbec1c75e4316817f35bcb9fa4a16cca7a5b2629ed4b7b836bd217b0",
    ),
    (
        "random-regular-d3",
        lambda: random_regular(20_000, 3, seed=1),
        "25f3fc9b62274e90e0d12e952b1232c7877fe5a83e25b80089eed32b4cc728df",
    ),
    (
        "random-regular-d4",
        lambda: random_regular(20_000, 4, seed=2),
        "a5be19f8cdde55decdb7375c48c80bfb49f8afdf2e8c6a3e52d3ee23f9113990",
    ),
    (
        "random-regular-d6",
        lambda: random_regular(20_001, 6, seed=3),
        "d644067383c44648d56bea779256415dbc6ca454c8102c825540f931e12ff5b9",
    ),
    (
        "random-regular-dense",
        lambda: random_regular(50, 10, seed=4),
        "07069d4bd50543832ee2c9feae0656b265fe7d04f566db638be8e8cba7e552c0",
    ),
    (
        "random-regular-near-complete",
        lambda: random_regular(12, 9, seed=15),
        "156e81a8b2161d0aed75b71e59e4aaee2e396ad5e3523319c325e017e2ca7ffb",
    ),
    (
        "watts-strogatz-p0",
        lambda: watts_strogatz(20_000, 4, 0.0, seed=5),
        "087d83ca5a97988a945b2dae599e91942c17ab943eb8ed5e0c9fdf69b5b878eb",
    ),
    (
        "watts-strogatz-p0.1",
        lambda: watts_strogatz(20_000, 4, 0.1, seed=6),
        "aafab367227df675cfe7cc2d72a8979f4f99bc9899e67b0cc697988ecff3020d",
    ),
    (
        "watts-strogatz-p0.9",
        lambda: watts_strogatz(20_000, 3, 0.9, seed=7),
        "f2a6cbddea56c6aee18b8c23e233e49f86ee281980808caea46a850689908959",
    ),
    (
        "watts-strogatz-isolated-patch",
        lambda: watts_strogatz(20_000, 1, 0.9, seed=13),
        "f35f981e46b7fb5e0cfe77bdf858c702ec31e2f6a51b904fb3714fd5deecd639",
    ),
    (
        "watts-strogatz-crowded",
        lambda: watts_strogatz(11, 5, 0.5, seed=14),
        "d1b45ecc5c30cd25eb17e14f1f2da84f201260a98409831c5b85889a33e8bd39",
    ),
    (
        "barabasi-albert",
        lambda: barabasi_albert(20_000, 3, seed=8),
        "411f978a8b9176eae90a847a994f5f8031089810aed0a21e0346dedb69dc7c30",
    ),
    (
        "erdos-renyi",
        lambda: erdos_renyi(20_000, 2e-4, seed=9),
        "7473eccb313d98b5296d7efbef5f40524731a26fc26d87a29e708ee6d472bc4a",
    ),
    (
        "from-networkx-grid",
        _from_networkx(_nx_torus),
        "67315b04db8f235cf3317200ed828b581bbf9a6aeac8af7ecedb89574a997e1b",
    ),
    (
        "from-networkx-multigraph",
        _from_networkx(_nx_multigraph),
        "b52a7d4233ce85c8e161c37cd320293bc6594c2427f89cdcdb63b237363e86b3",
    ),
    (
        "dynamic-ring-epoch3",
        lambda: _churned("dynamic-ring", {"churn_rate": 0.05, "churn_seed": 10}, 20_000),
        "f007f3c402fca62bb169d3fc04ed3fc5729ee1a160fff32b80dec961cd2c9b63",
    ),
    (
        "dynamic-torus-epoch3",
        lambda: _churned(
            "dynamic-torus", {"churn_rate": 0.05, "churn_seed": 11, "rule": "rebirth"}, 20_000
        ),
        "6bab2c250f197b5d0fdc1e4bfba72b07cd626079fd9ee383f5d5c7ea00b61357",
    ),
]


@pytest.mark.parametrize("case", GRAPH_PINS, ids=[case[0] for case in GRAPH_PINS])
def test_graph_csr_is_pinned(case):
    _, build, expected = case
    assert _csr_digest(build()) == expected
