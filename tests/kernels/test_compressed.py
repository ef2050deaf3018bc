"""S3's gather-traffic accounting (Section 4.3) on the value plane.

A kernel gathering mask-compressed rows moves each row's stored bytes
(its non-zeros plus its mask) instead of the dense row, once per gather:
``E + V`` gathers in all, ``1 + in-degree`` of them of row ``v``.  The
savings are measured on :func:`repro.tensors.compress_matrix`'s real
storage and held against the analytic law the cost model prices.
"""

import numpy as np
import pytest

from repro.graphs import synthetic_features
from repro.tensors import traffic_saved
from repro.tensors.compression import compress_matrix


def gather_bytes_saved(graph, h):
    """DRAM bytes one aggregation pass avoids by gathering the S3 rows."""
    compressed = compress_matrix(h)
    itemsize = compressed.slots.dtype.itemsize
    dense_row = compressed.cols * itemsize
    stored = compressed.counts * itemsize + compressed.masks.shape[1]
    gathers_per_row = np.bincount(graph.indices, minlength=graph.num_vertices) + 1
    return float(((dense_row - stored) * gathers_per_row).sum())


class TestSavingsAccounting:
    def test_savings_grow_with_sparsity(self, small_products):
        savings = []
        for target in (0.1, 0.5, 0.9):
            h = synthetic_features(small_products, 32, seed=0, sparsity=target)
            savings.append(gather_bytes_saved(small_products, h))
        assert savings[0] < savings[1] < savings[2]

    def test_dense_input_costs_traffic(self, small_products):
        """Below break-even sparsity the mask overhead makes traffic worse."""
        h = synthetic_features(small_products, 32, seed=0, sparsity=0.0)
        assert gather_bytes_saved(small_products, h) < 0
        assert traffic_saved(0.0) < 0  # consistent with the analytic model

    def test_savings_match_analytic_scale(self, small_products):
        """Measured savings track the (1 - s) - 1/32 law."""
        sparsity = 0.5
        h = synthetic_features(small_products, 64, seed=1, sparsity=sparsity)
        gathers = small_products.num_edges + small_products.num_vertices
        dense_bytes = gathers * 64 * 4
        measured_fraction = gather_bytes_saved(small_products, h) / dense_bytes
        assert measured_fraction == pytest.approx(
            traffic_saved(sparsity), abs=0.04
        )
