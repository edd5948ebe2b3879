"""Tests for the additional graph families."""

import numpy as np
import pytest

from repro.core.exceptions import TopologyError
from repro.graphs.families import (
    barabasi_albert,
    hypercube,
    random_regular,
    star,
    watts_strogatz,
)


class TestHypercube:
    def test_structure(self):
        graph = hypercube(4)
        assert graph.n == 16
        assert all(graph.degree(u) == 4 for u in range(16))

    def test_neighbors_differ_in_one_bit(self):
        graph = hypercube(3)
        for u in range(8):
            for v in graph.neighbors_of(u):
                assert bin(u ^ int(v)).count("1") == 1

    def test_validation(self):
        with pytest.raises(TopologyError):
            hypercube(0)
        with pytest.raises(TopologyError):
            hypercube(30)


class TestStar:
    def test_structure(self):
        graph = star(6)
        assert graph.degree(0) == 5
        assert all(graph.degree(u) == 1 for u in range(1, 6))

    def test_leaves_only_reach_hub(self, rng):
        graph = star(5)
        leaves = np.repeat(np.arange(1, 5), 5)
        assert (graph.sample_neighbors_block(leaves, 2, rng) == 0).all()

    def test_validation(self):
        with pytest.raises(TopologyError):
            star(2)


class TestRandomRegular:
    def test_degrees(self):
        graph = random_regular(50, 4, seed=1)
        assert all(graph.degree(u) == 4 for u in range(50))

    def test_simple_no_self_loops(self):
        graph = random_regular(40, 3, seed=2)
        for u in range(40):
            neighbors = graph.neighbors_of(u).tolist()
            assert u not in neighbors
            assert len(set(neighbors)) == len(neighbors)

    @staticmethod
    def _assert_simple_regular(graph, n, degree):
        rows = np.sort(graph._flat.reshape(n, degree), axis=1)
        assert not (rows == np.arange(n)[:, None]).any()
        assert (np.diff(rows, axis=1) > 0).all()

    def test_switch_of_two_self_loops_is_rejected(self):
        # Two self-loop pairs (a, a) and (c, c) once swapped into one
        # edge {a, c} twice: seed 20 gave node 3 a double edge to node 4,
        # and seed 320 let a later switch hit a KeyError.
        self._assert_simple_regular(random_regular(10, 4, seed=20), 10, 4)
        self._assert_simple_regular(random_regular(11, 8, seed=320), 11, 8)

    def test_small_dense_graphs_are_simple(self):
        # Before the fix, 31 of these 410 graphs had a double edge.
        for n in range(10, 31, 4):
            for degree in range(4, 11):
                if degree >= n or (n * degree) % 2:
                    continue
                for seed in range(0, 100, 10):
                    self._assert_simple_regular(random_regular(n, degree, seed=seed), n, degree)

    @pytest.mark.parametrize("seed", [7, 35, 60, 90])
    def test_complete_degree_falls_back_to_kn(self, seed):
        # K_n is the only (n - 1)-regular graph; these seeds exhausted
        # every repair attempt and raised TopologyError.
        graph = random_regular(11, 10, seed=seed)
        self._assert_simple_regular(graph, 11, 10)
        for u in range(11):
            assert graph.neighbors_of(u).tolist() == [v for v in range(11) if v != u]

    def test_deterministic(self):
        a = random_regular(30, 4, seed=7)
        b = random_regular(30, 4, seed=7)
        assert all((a.neighbors_of(u) == b.neighbors_of(u)).all() for u in range(30))

    def test_parity_validation(self):
        with pytest.raises(TopologyError):
            random_regular(5, 3)  # odd n * odd degree

    def test_degree_range_validation(self):
        with pytest.raises(TopologyError):
            random_regular(10, 0)
        with pytest.raises(TopologyError):
            random_regular(10, 10)


class TestWattsStrogatz:
    def test_no_rewiring_is_ring_lattice(self):
        graph = watts_strogatz(20, 2, 0.0, seed=1)
        assert all(graph.degree(u) == 4 for u in range(20))

    def test_rewired_stays_connected_enough(self):
        graph = watts_strogatz(100, 2, 0.3, seed=2)
        assert all(graph.degree(u) >= 1 for u in range(100))
        total_degree = sum(graph.degree(u) for u in range(100))
        assert total_degree >= 2 * 100  # at least ring-lattice edge mass shifted around

    def test_validation(self):
        with pytest.raises(TopologyError):
            watts_strogatz(10, 5, 0.1)
        with pytest.raises(TopologyError):
            watts_strogatz(10, 2, 1.5)


class TestAtScale:
    """Structure at n = 2e4, cheap now that builders emit CSR directly."""

    def test_random_regular_is_simple_and_regular(self):
        n, degree = 20_000, 4
        graph = random_regular(n, degree, seed=11)
        assert graph._uniform_degree == degree
        rows = np.sort(graph._flat.reshape(n, degree), axis=1)
        assert not (rows == np.arange(n)[:, None]).any()
        assert (np.diff(rows, axis=1) > 0).all()
        heads = np.repeat(np.arange(n), degree)
        assert np.array_equal(np.sort(heads * n + graph._flat), np.sort(graph._flat * n + heads))

    def test_watts_strogatz_without_rewiring_is_the_ring_lattice(self):
        n, neighbors = 20_000, 3
        graph = watts_strogatz(n, neighbors, 0.0, seed=12)
        assert graph._uniform_degree == 2 * neighbors
        offsets = (graph._flat.reshape(n, 2 * neighbors) - np.arange(n)[:, None]) % n
        lattice = [1, 2, 3, n - 3, n - 2, n - 1]
        assert (np.sort(offsets, axis=1) == lattice).all()


class TestBarabasiAlbert:
    def test_size_and_min_degree(self):
        graph = barabasi_albert(100, 3, seed=1)
        assert graph.n == 100
        assert all(graph.degree(u) >= 3 for u in range(100))

    def test_hub_emerges(self):
        graph = barabasi_albert(400, 2, seed=3)
        degrees = np.array([graph.degree(u) for u in range(400)])
        # preferential attachment: the max degree dwarfs the median
        assert degrees.max() >= 4 * np.median(degrees)

    def test_edge_count(self):
        m = 3
        graph = barabasi_albert(50, m, seed=4)
        total_degree = sum(graph.degree(u) for u in range(50))
        expected_edges = (m + 1) * m // 2 + (50 - m - 1) * m
        assert total_degree == 2 * expected_edges

    def test_validation(self):
        with pytest.raises(TopologyError):
            barabasi_albert(5, 0)
        with pytest.raises(TopologyError):
            barabasi_albert(3, 3)


class TestProtocolsRunOnFamilies:
    """The agent engines accept any of these topologies."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: hypercube(7),
            lambda: random_regular(128, 6, seed=5),
            lambda: watts_strogatz(128, 3, 0.2, seed=6),
            lambda: barabasi_albert(128, 4, seed=7),
        ],
    )
    def test_two_choices_converges_with_strong_bias(self, factory):
        from repro.core.colors import ColorConfiguration
        from repro.engine.synchronous import SynchronousEngine
        from repro.protocols.two_choices import TwoChoicesSequential

        topology = factory()
        n = topology.n
        engine = SynchronousEngine(TwoChoicesSequential(), topology)
        result = engine.run(ColorConfiguration([int(0.8 * n), n - int(0.8 * n)]), seed=9, max_rounds=3_000)
        assert result.converged
        assert result.winner == 0
