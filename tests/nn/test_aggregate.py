"""Unit tests for the reference aggregation numerics (Eq. 1, Table 2)."""

import numpy as np
import pytest

from repro.graphs import power_law_graph, star_graph, synthetic_features
from repro.nn import (
    AGGREGATORS,
    aggregate,
    aggregate_backward,
    gather_reduce_reference,
    normalization_factors,
    normalized_adjacency,
)


class TestNormalizationFactors:
    def test_gcn_symmetric_normalization(self, tiny_graph):
        edge, self_f = normalization_factors(tiny_graph, "gcn")
        degs = tiny_graph.degrees() + 1.0
        # Edge 0 <- 1: factor 1/sqrt(d0 * d1).
        expected = 1.0 / np.sqrt(degs[0] * degs[1])
        assert edge[0] == pytest.approx(expected, rel=1e-6)
        assert self_f[0] == pytest.approx(1.0 / degs[0], rel=1e-6)

    def test_mean_uses_destination_degree(self, tiny_graph):
        edge, self_f = normalization_factors(tiny_graph, "mean")
        degs = tiny_graph.degrees() + 1.0
        assert edge[0] == pytest.approx(1.0 / degs[0])
        np.testing.assert_allclose(self_f, 1.0 / degs, rtol=1e-6)

    def test_sum_is_unit(self, tiny_graph):
        edge, self_f = normalization_factors(tiny_graph, "sum")
        np.testing.assert_array_equal(edge, 1.0)
        np.testing.assert_array_equal(self_f, 1.0)

    def test_unknown_aggregator(self, tiny_graph):
        with pytest.raises(ValueError):
            normalization_factors(tiny_graph, "median")

    @pytest.mark.parametrize("aggregator", ["gcn", "mean"])
    def test_bitwise_the_destination_index_gather(self, aggregator):
        """The per-edge destination degree is ``d_hat`` repeated per row:
        bitwise the gather through an int64 destination index."""
        graph = power_law_graph(300, 8.0, seed=4)
        d_hat = graph.self_loop_degrees()
        dst = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees())
        if aggregator == "gcn":
            expected = 1.0 / np.sqrt(d_hat[dst] * d_hat[graph.indices])
        else:
            expected = 1.0 / d_hat[dst]
        edge, _ = normalization_factors(graph, aggregator)
        np.testing.assert_array_equal(edge, expected.astype(np.float32))


class TestAggregate:
    @pytest.mark.parametrize("aggregator", ["gcn", "mean", "sum"])
    def test_matches_scalar_oracle(self, small_products, aggregator):
        h = synthetic_features(small_products, 12, seed=1)
        fast = aggregate(small_products, h, aggregator)
        slow = gather_reduce_reference(small_products, h, aggregator)
        np.testing.assert_allclose(fast, slow, atol=1e-4)

    def test_mean_averages_constant_features(self, tiny_graph):
        h = np.full((5, 3), 7.0, dtype=np.float32)
        out = aggregate(tiny_graph, h, "mean")
        np.testing.assert_allclose(out, 7.0, rtol=1e-6)

    def test_isolated_vertex_keeps_scaled_self(self, tiny_graph):
        h = np.eye(5, dtype=np.float32) * 4.0
        out = aggregate(tiny_graph, h, "mean")
        # Vertex 4 is isolated: mean over {4} alone = its own features.
        np.testing.assert_allclose(out[4], h[4], rtol=1e-6)

    def test_sum_counts_contributions(self):
        graph = star_graph(3)
        h = np.ones((4, 2), dtype=np.float32)
        out = aggregate(graph, h, "sum")
        # Hub gathers 3 leaves + itself.
        np.testing.assert_allclose(out[0], 4.0)
        # Leaves gather the hub + themselves.
        np.testing.assert_allclose(out[1], 2.0)

    def test_shape_mismatch_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            aggregate(tiny_graph, np.ones((3, 4), dtype=np.float32))


class TestBackward:
    @pytest.mark.parametrize("aggregator", ["gcn", "mean"])
    def test_backward_is_transpose(self, small_uniform, aggregator):
        """<A h, g> == <h, A^T g> for the linear aggregators."""
        rng = np.random.default_rng(0)
        h = rng.standard_normal((small_uniform.num_vertices, 6)).astype(np.float32)
        g = rng.standard_normal((small_uniform.num_vertices, 6)).astype(np.float32)
        forward = aggregate(small_uniform, h, aggregator)
        backward = aggregate_backward(small_uniform, g, aggregator)
        lhs = float((forward * g).sum())
        rhs = float((h * backward).sum())
        assert lhs == pytest.approx(rhs, rel=1e-3)

    def test_max_backward_not_supported(self, tiny_graph):
        """``max`` is no aggregator: no layer builds it, so it is refused
        by name in both directions."""
        ones = np.ones((5, 2), dtype=np.float32)
        for run in (aggregate, aggregate_backward):
            with pytest.raises(ValueError, match="unknown aggregator 'max'"):
                run(tiny_graph, ones, "max")


class TestNormalizedAdjacency:
    def test_spmm_equals_aggregate(self, small_uniform):
        h = synthetic_features(small_uniform, 8, seed=2)
        a_hat = normalized_adjacency(small_uniform, "gcn")
        np.testing.assert_allclose(
            a_hat @ h, aggregate(small_uniform, h, "gcn"), atol=1e-5
        )

    def test_mean_rows_sum_to_one(self, small_uniform):
        a_hat = normalized_adjacency(small_uniform, "mean")
        np.testing.assert_allclose(np.asarray(a_hat.sum(axis=1)).ravel(), 1.0, rtol=1e-5)

    def test_aggregators_constant(self):
        assert set(AGGREGATORS) == {"gcn", "mean", "sum"}
