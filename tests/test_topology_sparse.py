"""Tests for repro.graphs.sparse and the networkx adapter."""

import contextlib
import signal

import numpy as np
import pytest

from repro.core.exceptions import TopologyError
from repro.graphs.nx_adapter import from_networkx
from repro.graphs.sparse import AdjacencyTopology, erdos_renyi, ring, torus


class TestAdjacencyTopology:
    def test_basic_path_graph(self):
        graph = AdjacencyTopology([[1], [0, 2], [1]])
        assert graph.n == 3
        assert graph.degree(1) == 2
        assert graph.neighbors_of(1).tolist() == [0, 2]

    def test_rejects_isolated_node(self):
        with pytest.raises(TopologyError):
            AdjacencyTopology([[1], [0], []])

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(TopologyError):
            AdjacencyTopology([[1], [5]])

    def test_rejects_single_node(self):
        with pytest.raises(TopologyError):
            AdjacencyTopology([[0]])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1], [0], []], "node 2 is isolated"),
            ([[], [2], [1]], "node 0 is isolated"),
            ([[1], [5]], "node 1 has a neighbour outside 0..1"),
            ([[1, 2], [0, -1], [0]], "node 1 has a neighbour outside 0..2"),
            ([[0]], "need at least 2 nodes, got 1"),
            ([], "need at least 2 nodes, got 0"),
        ],
        ids=["isolated-last", "isolated-first", "out-of-range", "negative", "single-node", "no-nodes"],
    )
    def test_rows_and_csr_raise_the_same_error(self, rows, message):
        # __init__ flattens its rows and validates through from_csr, so
        # both constructors reject a bad graph with one message.
        offsets = np.cumsum([0] + [len(row) for row in rows])
        flat = np.array([v for row in rows for v in row], dtype=np.int64)
        with pytest.raises(TopologyError, match=message) as from_rows:
            AdjacencyTopology(rows)
        with pytest.raises(TopologyError) as from_csr:
            AdjacencyTopology.from_csr(offsets, flat)
        assert str(from_rows.value) == str(from_csr.value)

    def test_sampling_respects_adjacency(self, rng):
        graph = AdjacencyTopology([[1], [0, 2], [1]])
        for _ in range(100):
            assert graph.sample_neighbor(0, rng) == 1
            assert graph.sample_neighbor(1, rng) in (0, 2)

    def test_sample_neighbors_batch(self, rng):
        graph = ring(10)
        samples = graph.sample_neighbors(0, 200, rng)
        assert set(np.unique(samples)) <= {1, 9}

    def test_sample_neighbors_many(self, rng):
        graph = ring(8)
        nodes = rng.integers(0, 8, size=500)
        samples = graph.sample_neighbors_many(nodes, rng)
        diffs = (samples - nodes) % 8
        assert set(np.unique(diffs)) <= {1, 7}

    def test_not_complete(self):
        assert not ring(5).is_complete()


class TestRing:
    def test_structure(self):
        graph = ring(5)
        assert graph.n == 5
        assert sorted(graph.neighbors_of(0).tolist()) == [1, 4]
        assert all(graph.degree(u) == 2 for u in range(5))

    def test_too_small(self):
        with pytest.raises(TopologyError):
            ring(2)


class TestTorus:
    def test_structure(self):
        graph = torus(3, 4)
        assert graph.n == 12
        assert all(graph.degree(u) == 4 for u in range(12))

    def test_wraparound(self):
        graph = torus(3, 3)
        # node 0 = (0,0); neighbours are (2,0)=6, (1,0)=3, (0,2)=2, (0,1)=1
        assert sorted(graph.neighbors_of(0).tolist()) == [1, 2, 3, 6]

    def test_too_small(self):
        with pytest.raises(TopologyError):
            torus(2, 5)


class TestErdosRenyi:
    def test_min_degree_patched(self):
        graph = erdos_renyi(30, 0.01, seed=0, ensure_min_degree=1)
        assert all(graph.degree(u) >= 1 for u in range(30))

    def test_deterministic_given_seed(self):
        a = erdos_renyi(20, 0.2, seed=5)
        b = erdos_renyi(20, 0.2, seed=5)
        assert all((a.neighbors_of(u) == b.neighbors_of(u)).all() for u in range(20))

    def test_dense_p_one_is_complete_graph(self):
        graph = erdos_renyi(10, 1.0, seed=1)
        assert all(graph.degree(u) == 9 for u in range(10))

    def test_invalid_p(self):
        with pytest.raises(TopologyError):
            erdos_renyi(10, 1.5)

    @pytest.mark.parametrize("min_degree", [4, 5, -1])
    def test_unreachable_min_degree_is_rejected(self, min_degree):
        # No node of a simple 4-node graph has degree above 3; the patch
        # loop used to spin forever on such a bound.
        with _alarm(10), pytest.raises(TopologyError, match="min degree"):
            erdos_renyi(4, 0.0, seed=1, ensure_min_degree=min_degree)

    def test_largest_min_degree_patches_to_the_complete_graph(self):
        with _alarm(10):
            graph = erdos_renyi(4, 0.0, seed=1, ensure_min_degree=3)
        assert all(graph.degree(u) == 3 for u in range(4))

    def test_simulate_rejects_unreachable_min_degree(self):
        from repro.api import SimulationSpec, simulate

        spec = SimulationSpec(
            protocol="two-choices",
            n=4,
            topology="erdos-renyi",
            topology_params={"p": 0.0, "graph_seed": 1, "min_degree": 5},
            initial="two-colors",
            initial_params={"gap": 2},
            seed=1,
        )
        with _alarm(10), pytest.raises(TopologyError, match="min degree"):
            simulate(spec)


@contextlib.contextmanager
def _alarm(seconds):
    """Turn a hang into a failure: raise TimeoutError after *seconds*."""

    def give_up(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestNetworkxAdapter:
    def test_round_trip(self):
        nx = pytest.importorskip("networkx")
        graph = from_networkx(nx.path_graph(4))
        assert graph.n == 4
        assert graph.degree(0) == 1
        assert graph.degree(1) == 2

    def test_rejects_directed(self):
        nx = pytest.importorskip("networkx")
        with pytest.raises(TopologyError):
            from_networkx(nx.DiGraph([(0, 1)]))

    def test_rejects_isolated(self):
        nx = pytest.importorskip("networkx")
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_node(2)
        with pytest.raises(TopologyError):
            from_networkx(g)

    def test_arbitrary_labels(self):
        nx = pytest.importorskip("networkx")
        g = nx.Graph([("a", "b"), ("b", "c")])
        graph = from_networkx(g)
        assert graph.n == 3
