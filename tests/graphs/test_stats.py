"""Unit tests for graph statistics (Table 3 columns)."""

import numpy as np

from repro.graphs import CSRGraph, graph_stats, skew


class TestGraphStats:
    def test_tiny_graph_values(self, tiny_graph):
        stats = graph_stats(tiny_graph)
        assert stats.num_vertices == 5
        assert stats.num_edges == 7
        assert stats.mean_degree == 7 / 5
        assert stats.max_degree == 3
        expected_var = np.var([2, 1, 1, 3, 0])
        assert abs(stats.degree_variance - expected_var) < 1e-9

    def test_empty_graph(self):
        stats = graph_stats(CSRGraph.from_edges(0, []))
        assert stats.num_vertices == 0
        assert stats.mean_degree == 0.0

    def test_as_row_contains_name(self, tiny_graph):
        assert "tiny" in graph_stats(tiny_graph).as_row()


class TestSkew:
    def test_star_is_highly_skewed(self, star10):
        assert skew(star10) > 1.2

    def test_regular_graph_low_skew(self, grid16):
        assert skew(grid16) < 0.5

    def test_zero_degree_graph(self):
        assert skew(CSRGraph.from_edges(3, [])) == 0.0
