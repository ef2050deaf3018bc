"""The shared aggregation core against the oracles (square, rectangular
halo-tail and transposed layouts), its adjoint, and its zero-copy
contract over a shared bundle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import CSRGraph, build_shards, edge_cut_partition, uniform_graph
from repro.kernels.jit import JitKernelCache, KernelSpec
from repro.kernels.segment import ScaledCSR
from repro.nn.aggregate import (
    gather_reduce_reference, normalization_factors, normalized_adjacency,
)
from repro.parallel import ArrayBundle
from repro.parallel.sharded import shard_factors

WIDTHS = (1, 100, 256)


def _features(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)).astype(np.float32)


def _forward(graph, aggregator="gcn"):
    edge, self_f = normalization_factors(graph, aggregator)
    return ScaledCSR.from_csr(
        graph.indptr, graph.indices, edge, self_f, graph.num_vertices
    )


def _shard_op(factors, shard, cols):
    """One shard's operator: owned rows, ``cols`` local + halo columns."""
    edge, self_f = shard_factors(*factors, shard)
    return ScaledCSR.from_csr(shard.indptr, shard.indices, edge, self_f, cols)


def _transposed(graph, aggregator="gcn"):
    """The backward layout the JIT cache builds (any width wraps it)."""
    spec = KernelSpec(1, aggregator)
    return JitKernelCache().specialize_backward(graph, spec)


class TestSquare:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("aggregator", ["gcn", "mean"])
    def test_matches_loop_oracle(self, small_products, aggregator, width):
        h = _features(small_products.num_vertices, width)
        out = _forward(small_products, aggregator)(h)
        assert out.dtype == np.float32
        np.testing.assert_allclose(
            out, gather_reduce_reference(small_products, h, aggregator), atol=1e-4
        )

    @pytest.mark.parametrize("width", WIDTHS)
    def test_transposed_matches_dense_adjoint(self, small_products, width):
        g = _features(small_products.num_vertices, width, seed=1)
        dense = normalized_adjacency(small_products, "gcn").toarray()
        expected = dense.astype(np.float64).T @ g.astype(np.float64)
        np.testing.assert_allclose(
            _transposed(small_products)(g), expected, atol=1e-4
        )

    def test_empty_rows_keep_the_bare_self_term(self, tiny_graph):
        h = _features(5, 4)
        _, self_f = normalization_factors(tiny_graph, "gcn")
        out = _forward(tiny_graph)(h)
        np.testing.assert_array_equal(out[4], h[4] * self_f[4])  # isolated

    def test_single_vertex(self):
        graph = CSRGraph.from_edges(1, [])
        h = _features(1, 3)
        np.testing.assert_array_equal(_forward(graph)(h), h)  # ψ_self = 1

    def test_row_slices_tile_the_full_product_bitwise(self, small_products):
        h = _features(small_products.num_vertices, 16)
        op = _forward(small_products)
        n = small_products.num_vertices
        bounds = [0, 1, 7, n // 2, n]
        tiled = np.concatenate(
            [op.rows(lo, hi)(h) for lo, hi in zip(bounds, bounds[1:])]
        )
        np.testing.assert_array_equal(tiled, op(h))
        assert op.rows(0, 1) is op.rows(0, 1)  # memoized, not rebuilt
        # Zero-copy: a slice views the parent's indices and factors.
        sub = op.rows(7, n // 2).matrix
        assert np.shares_memory(sub.indices, op.matrix.indices)
        assert np.shares_memory(sub.data, op.matrix.data)
        assert sub.indptr.dtype == op.matrix.indices.dtype
        assert op.rows(0, n) is op


class TestRectangular:
    """A shard: owned rows first, halo copies in the tail."""

    @pytest.fixture(scope="class", params=["gcn", "mean"])
    def sharded(self, request, small_products):
        assignment = edge_cut_partition(small_products, 3).assignment
        factors = normalization_factors(small_products, request.param)
        return request.param, factors, build_shards(small_products, assignment)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_shards_reassemble_the_oracle(self, small_products, sharded, width):
        aggregator, factors, shards = sharded
        h = _features(small_products.num_vertices, width)
        expected = gather_reduce_reference(small_products, h, aggregator)
        for shard in shards:
            op = _shard_op(factors, shard, shard.num_local + shard.num_halo)
            x = np.concatenate([h[shard.local_vertices], h[shard.halo_vertices]])
            np.testing.assert_allclose(
                op(x), expected[shard.local_vertices], atol=1e-4
            )

    def test_zero_edge_shard(self):
        graph = CSRGraph.from_edges(6, [])  # every shard is edgeless
        factors = normalization_factors(graph, "gcn")
        h = _features(6, 5)
        for shard in build_shards(graph, np.array([0, 1, 0, 1, 0, 1])):
            op = _shard_op(factors, shard, shard.num_local)
            assert op.nnz == 0
            np.testing.assert_array_equal(
                op(h[shard.local_vertices]), h[shard.local_vertices]
            )


class TestFromCoo:
    def test_duplicate_edges_sum_like_separate_edges(self):
        rows = np.array([0, 0, 1, 0])
        cols = np.array([2, 2, 0, 1])  # edge (0, 2) twice
        weights = np.array([0.5, 0.25, 2.0, 1.0], dtype=np.float32)
        h = _features(3, 4)
        out = ScaledCSR.from_coo(rows, cols, weights, (2, 3))(h)
        expected = np.zeros((2, 4), dtype=np.float64)
        for r, c, w in zip(rows, cols, weights):
            expected[r] += w * h[c].astype(np.float64)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_empty_block(self):
        empty = np.empty(0, dtype=np.int64)
        op = ScaledCSR.from_coo(empty, empty, np.empty(0, np.float32), (0, 0))
        assert op(np.empty((0, 7), dtype=np.float32)).shape == (0, 7)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    num_edges = draw(st.integers(min_value=0, max_value=4 * n))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(num_edges)
    ]
    return CSRGraph.from_edges(n, edges, name="hypo")


@settings(max_examples=50, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 100),
       aggregator=st.sampled_from(["gcn", "mean"]))
def test_transposed_operator_is_the_adjoint(graph, seed, aggregator):
    """``<op(h), g> == <h, op_T(g)>`` — what makes the backward pass the
    gradient of the forward pass."""
    h = _features(graph.num_vertices, 5, seed)
    g = _features(graph.num_vertices, 5, seed + 1)
    lhs = np.vdot(_forward(graph, aggregator)(h).astype(np.float64), g)
    rhs = np.vdot(h, _transposed(graph, aggregator)(g).astype(np.float64))
    scale = np.abs(h).sum() * np.abs(g).max() + 1.0
    assert abs(lhs - rhs) <= 1e-5 * scale


class TestZeroCopy:
    @pytest.mark.parametrize("shared", [True, False])
    def test_int32_bundle_indices_are_wrapped_not_copied(self, shared):
        graph = uniform_graph(64, 5.0, seed=3)
        edge, self_f = normalization_factors(graph, "gcn")
        with ArrayBundle.create({
            "indptr": graph.indptr.astype(np.int32),
            "indices": graph.indices.astype(np.int32),
            "edge": edge, "self": self_f,
        }, shared=shared) as bundle:
            op = ScaledCSR.from_csr(
                bundle.view("indptr"), bundle.view("indices"),
                bundle.view("edge"), bundle.view("self"), graph.num_vertices,
            )
            assert np.shares_memory(op.matrix.indices, bundle.view("indices"))
            assert np.shares_memory(op.matrix.indptr, bundle.view("indptr"))
            assert np.shares_memory(op.matrix.data, bundle.view("edge"))
            h = _features(graph.num_vertices, 8)
            np.testing.assert_array_equal(op(h), _forward(graph)(h))
            del op
