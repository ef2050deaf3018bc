"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.graphs import (
    community_graph, grid_graph, planted_partition_graph, power_law_graph,
    uniform_graph,
)
from repro.graphs.stats import skew


class TestUniform:
    def test_size_and_degree(self):
        graph = uniform_graph(500, avg_degree=8.0, seed=0)
        assert graph.num_vertices == 500
        assert 5.0 < graph.num_edges / 500 <= 8.0  # dedup trims a little

    def test_deterministic(self):
        np.testing.assert_array_equal(uniform_graph(100, 4.0, seed=5).indices,
                                      uniform_graph(100, 4.0, seed=5).indices)

    def test_different_seeds_differ(self):
        assert not np.array_equal(uniform_graph(100, 4.0, seed=1).indices,
                                  uniform_graph(100, 4.0, seed=2).indices)


class TestPowerLaw:
    def test_skew_exceeds_uniform(self):
        plaw = power_law_graph(600, avg_degree=10.0, seed=0)
        unif = uniform_graph(600, avg_degree=10.0, seed=0)
        assert skew(plaw) > skew(unif)

    def test_max_degree_cap(self):
        """In-degrees are capped at ``n - 1`` even when the mean asks
        for more."""
        graph = power_law_graph(20, 30.0, seed=0)
        assert graph.degrees().max() <= 19

    @pytest.mark.parametrize("degree", [-3.0, 0.0, float("nan"), float("inf")])
    def test_degree_must_be_positive_and_finite(self, degree):
        with pytest.raises(ValueError, match="avg_degree"):
            power_law_graph(100, degree)


class TestGrid:
    def test_interior_degree_four(self):
        assert grid_graph(5).degree(12) == 4  # center vertex

    def test_corner_degree_two(self):
        assert grid_graph(5).degree(0) == 2

    def test_edge_count(self):
        assert grid_graph(4).num_edges == 2 * 2 * 4 * 3  # 2 * 2 * side * (side-1)


class TestStarChain:
    def test_star_hub_gathers_all_leaves(self, star10):
        assert star10.degree(0) == 10

    def test_star_leaves_gather_hub(self, star10):
        for leaf in range(1, 11):
            assert list(star10.neighbors(leaf)) == [0]

    def test_chain_degrees(self, chain20):
        assert chain20.degree(0) == 0
        assert all(chain20.degree(v) == 1 for v in range(1, 20))


class TestPlantedPartition:
    def test_labels_shape(self):
        _, labels = planted_partition_graph(200, 4, p_in=0.1, p_out=0.005, seed=0)
        assert labels.shape == (200,) and labels.max() < 4

    def test_within_class_edges_dominate(self):
        graph, labels = planted_partition_graph(300, 3, p_in=0.08, p_out=0.004, seed=1)
        within = sum(labels[v] == labels[u] for v in range(graph.num_vertices)
                     for u in graph.neighbors(v))
        assert within / graph.num_edges > 0.6

    def test_symmetric(self):
        graph, _ = planted_partition_graph(100, 2, 0.1, 0.01, seed=2)
        for v in range(graph.num_vertices):
            for u in graph.neighbors(v):
                assert v in graph.neighbors(int(u))


#: Communities of 32 that draw nine tenths of their neighbours inside.
BLOCKS = dict(num_vertices=512, avg_degree=16.0, community_size=32,
              within_fraction=0.9, seed=0)


def adjacent_overlap(graph):
    """Mean neighbour overlap of the vertex pairs (v, v + 1), v < 200."""
    vals = []
    for v in range(200):
        a = set(graph.neighbors(v).tolist())
        b = set(graph.neighbors(v + 1).tolist())
        if a and b:
            vals.append(len(a & b) / min(len(a), len(b)))
    return float(np.mean(vals))


class TestCommunityGraph:
    def test_degree_targeting(self):
        graph = community_graph(1024, avg_degree=20.0, community_size=32, seed=0)
        achieved = graph.num_edges / graph.num_vertices
        assert 0.75 * 20 <= achieved <= 1.35 * 20

    def test_deterministic(self):
        np.testing.assert_array_equal(community_graph(256, 10.0, 16, seed=9).indices,
                                      community_graph(256, 10.0, 16, seed=9).indices)

    def test_contiguous_communities_share_neighbors(self):
        """Without scattering, adjacent vertex ids share many sources."""
        assert adjacent_overlap(community_graph(scatter_ids=False, **BLOCKS)) > 0.3

    def test_scattering_destroys_id_locality(self):
        contiguous = community_graph(scatter_ids=False, **BLOCKS)
        scattered = community_graph(scatter_ids=True, **BLOCKS)
        assert adjacent_overlap(contiguous) > 2 * adjacent_overlap(scattered)

    def test_partial_scatter_in_between(self):
        full = adjacent_overlap(community_graph(scatter_ids=True, **BLOCKS))
        none = adjacent_overlap(community_graph(scatter_ids=False, **BLOCKS))
        partial = adjacent_overlap(
            community_graph(scatter_ids=True, scatter_fraction=0.3, **BLOCKS))
        assert full < partial < none

    def test_invalid_parameters(self):
        for bad in ({"community_size": 1},
                    {"community_size": 8, "within_fraction": 1.5},
                    {"community_size": 8, "scatter_fraction": -0.1}):
            with pytest.raises(ValueError):
                community_graph(64, 4.0, **bad)

    def test_no_self_edges_within_communities(self):
        graph = community_graph(256, 12.0, 16, within_fraction=1.0, seed=0)
        targets = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
        assert not np.any(graph.indices == targets)
