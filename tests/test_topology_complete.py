"""Tests for repro.graphs.complete (the paper's K_n)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import TopologyError
from repro.graphs.complete import CompleteGraph


class TestBasics:
    def test_degree(self):
        graph = CompleteGraph(10)
        assert graph.degree(0) == 9
        assert graph.degree(9) == 9
        assert len(graph) == 10
        assert graph.is_complete()

    def test_rejects_tiny(self):
        with pytest.raises(TopologyError):
            CompleteGraph(1)

    def test_degree_out_of_range(self):
        with pytest.raises(TopologyError):
            CompleteGraph(5).degree(5)

    def test_repr(self):
        assert "CompleteGraph" in repr(CompleteGraph(3))


class TestNeverSamplesSelf:
    def test_block_of_every_node(self, rng):
        graph = CompleteGraph(5)
        nodes = np.repeat(np.arange(5), 200)
        samples = graph.sample_neighbors_block(nodes, 1, rng)
        assert samples.shape == (1000, 1)
        assert (samples[:, 0] != nodes).all()

    def test_batch(self, rng):
        graph = CompleteGraph(7)
        for node in range(7):
            samples = graph.sample_neighbors(node, 500, rng)
            assert (samples != node).all()
            assert samples.min() >= 0 and samples.max() < 7

    def test_block_column(self, rng):
        graph = CompleteGraph(9)
        nodes = rng.integers(0, 9, size=2000)
        samples = graph.sample_neighbors_block(nodes, 1, rng)[:, 0]
        assert (samples != nodes).all()
        assert samples.min() >= 0 and samples.max() < 9

    def test_block_pairs(self, rng):
        graph = CompleteGraph(6)
        nodes = rng.integers(0, 6, size=1000)
        pairs = graph.sample_neighbors_block(nodes, 2, rng)
        assert pairs.shape == (1000, 2)
        assert (pairs != nodes[:, None]).all()


class TestUniformity:
    def test_scalar_uniform_over_neighbors(self, rng):
        """Each neighbour should be hit ~uniformly (loose chi-square bound)."""
        n, node, draws = 6, 2, 30_000
        graph = CompleteGraph(n)
        samples = graph.sample_neighbors(node, draws, rng)
        counts = np.bincount(samples, minlength=n)
        assert counts[node] == 0
        expected = draws / (n - 1)
        others = np.delete(counts, node)
        # 5 sigma of a binomial around the uniform expectation.
        sigma = np.sqrt(draws * (1 / (n - 1)) * (1 - 1 / (n - 1)))
        assert (np.abs(others - expected) < 5 * sigma).all()

    def test_vectorised_matches_scalar_law(self, rng):
        """sample_neighbors_block must induce the same per-node marginal."""
        n, draws = 5, 30_000
        graph = CompleteGraph(n)
        nodes = np.full(draws, 3)
        samples = graph.sample_neighbors_block(nodes, 1, rng)[:, 0]
        counts = np.bincount(samples, minlength=n)
        assert counts[3] == 0
        expected = draws / (n - 1)
        sigma = np.sqrt(draws / (n - 1))
        assert (np.abs(np.delete(counts, 3) - expected) < 5 * sigma).all()


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=200),
    node=st.integers(min_value=0, max_value=199),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_sample_in_range_and_not_self(n, node, seed):
    node = node % n
    graph = CompleteGraph(n)
    gen = np.random.default_rng(seed)
    sample = graph.sample_neighbors_block(np.array([node]), 1, gen)[0, 0]
    assert 0 <= sample < n
    assert sample != node
    batch = graph.sample_neighbors(node, 8, gen)
    assert ((batch >= 0) & (batch < n) & (batch != node)).all()
