"""Structural properties of fusion (Section 4.2) as the value plane runs it.

S2 is a layer's update run as a sweep over row blocks
(:func:`repro.nn.layers.output_sweep`): each block's GEMM, bias and
ReLU run while the block's aggregation rows are in cache.  The sweep
block is :data:`repro.nn.layers.SWEEP_ROWS` rows (patched here to the
sizes under test).  Plus Alg. 1's software-prefetch count.
"""

import numpy as np
import pytest

from repro import lanes
from repro.graphs import synthetic_features
from repro.kernels import BasicKernel
from repro.nn import GNNLayer, aggregate
from repro.nn.layers import SweepBuffers, layer_output, output_sweep, sweep_bounds


def _params(f_in, f_out):
    weight = np.random.default_rng(0).standard_normal((f_in, f_out))
    return (weight * 0.1).astype(np.float32), np.zeros(f_out, np.float32)


def _inference_sweep(graph, h, f_out):
    """One lane's inference sweep: ``(next_operand, buffers)``.  Only
    the next layer's transform reads a block, so no output is kept."""
    buffers = SweepBuffers()
    out, next_operand = output_sweep(
        aggregate(graph, h, "gcn"), *_params(h.shape[1], f_out), True, tf=False,
        next_weight=np.ones((f_out, 2), np.float32), keep=False,
        buffers=buffers,
    )
    assert out is None
    return next_operand, buffers


class TestFootprint:
    def test_inference_buffer_is_one_block(self, always_split, monkeypatch, small_products):
        """Figure 5c: inference needs only one reusable buffer, sized for
        the longest block a sweep can cut (a short tail joins the block
        before it)."""
        always_split(1)
        monkeypatch.setattr("repro.nn.layers.SWEEP_ROWS", 16)
        h = synthetic_features(small_products, 32, seed=0)
        _, buffers = _inference_sweep(small_products, h, 8)
        assert buffers.nbytes == (16 + lanes.MIN_SLICE - 1) * 8 * 4

    def test_training_keeps_full_matrix(self, small_products):
        """Figure 5b: training retains all of the output for backward."""
        h = synthetic_features(small_products, 32, seed=0)
        weight, bias = _params(32, 8)
        buffers = SweepBuffers()
        out, _ = output_sweep(
            aggregate(small_products, h, "gcn"), weight, bias, True, tf=False,
            buffers=buffers,
        )
        assert out.nbytes == small_products.num_vertices * 8 * 4
        assert buffers.nbytes == 0

    def test_inference_footprint_much_smaller(self, always_split, monkeypatch, small_products):
        always_split(1)
        monkeypatch.setattr("repro.nn.layers.SWEEP_ROWS", 8)
        h = synthetic_features(small_products, 64, seed=0)
        _, buffers = _inference_sweep(small_products, h, 64)
        assert buffers.nbytes * 10 < small_products.num_vertices * 64 * 4


class TestBlocking:
    @pytest.mark.parametrize("block_size", [1, 3, 16, 1000])
    def test_any_block_size_is_correct(self, monkeypatch, small_products, block_size):
        h = synthetic_features(small_products, 12, seed=1)
        weight, bias = _params(12, 6)
        a = aggregate(small_products, h, "gcn")
        reference = layer_output(a, weight, bias, True, tf=False)
        monkeypatch.setattr("repro.nn.layers.SWEEP_ROWS", block_size)
        out, _ = output_sweep(a, weight, bias, True, tf=False)
        np.testing.assert_allclose(out, reference, atol=1e-5)

    def test_block_count(self, monkeypatch, small_products):
        """One block per 10 rows; a tail shorter than a lane's minimum
        slice joins the block before it."""
        monkeypatch.setattr("repro.nn.layers.SWEEP_ROWS", 10)
        n = small_products.num_vertices
        tail = n % 10
        expected = (n + 9) // 10 - (0 < tail < lanes.MIN_SLICE)
        assert len(sweep_bounds(n)) - 1 == expected

    def test_weight_shape_checked(self, small_products):
        layer = GNNLayer(16, 4)
        h = synthetic_features(small_products, 8, seed=3)
        with pytest.raises(ValueError):
            layer.forward(small_products, h, kernel=BasicKernel())


class TestPrefetch:
    def test_prefetch_counts_two_lines_per_vector(self, small_products):
        """Section 4.1: only the first two cache lines are prefetched."""
        h = synthetic_features(small_products, 16, seed=4)
        kernel = BasicKernel(prefetch_distance=4)
        _, stats = kernel.aggregate(small_products, h)
        gathers_ahead = sum(
            small_products.degree(v) + 1
            for v in range(4, small_products.num_vertices)
        )
        assert stats.prefetches == gathers_ahead * 2

    def test_zero_distance_disables_prefetch(self, small_products):
        h = synthetic_features(small_products, 16, seed=4)
        _, stats = BasicKernel(prefetch_distance=0).aggregate(small_products, h)
        assert stats.prefetches == 0
