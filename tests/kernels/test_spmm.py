"""Unit tests for the MKL SpMM baseline kernel (Section 6)."""

import numpy as np
import pytest

from repro import obs
from repro.graphs import randomized_order, synthetic_features
from repro.kernels import SpMMKernel
from repro.nn.aggregate import gather_reduce_reference


class TestOrderKwarg:
    """Variant sweeps pass ``order`` to every kernel uniformly; for SpMM
    it must be accepted and ignored (one sparse product computes all rows
    at once, so processing order cannot matter)."""

    def test_order_is_noop(self, small_products, features16):
        kernel = SpMMKernel()
        plain, _ = kernel.aggregate(small_products, features16, "gcn")
        order = randomized_order(small_products, seed=8)
        ordered, _ = kernel.aggregate(small_products, features16, "gcn", order=order)
        np.testing.assert_array_equal(plain, ordered)

    def test_wrong_length_order_rejected(self, small_products, features16):
        with pytest.raises(ValueError):
            SpMMKernel().aggregate(
                small_products, features16, "gcn", order=np.array([0, 1, 2])
            )

    def test_duplicate_ids_rejected(self, small_products, features16):
        """Regression: ``order`` used to be a silent no-op — any
        same-length array slipped through.  A repeated vertex id is not a
        permutation and must raise, exactly as the walking kernels do."""
        order = np.zeros(small_products.num_vertices, dtype=np.int64)
        with pytest.raises(ValueError, match="permutation"):
            SpMMKernel().aggregate(small_products, features16, "gcn", order=order)

    def test_out_of_range_ids_rejected(self, small_products, features16):
        order = np.arange(small_products.num_vertices, dtype=np.int64)
        order[0] = small_products.num_vertices  # one past the end
        with pytest.raises(ValueError, match="permutation"):
            SpMMKernel().aggregate(small_products, features16, "gcn", order=order)
        order[0] = -1
        with pytest.raises(ValueError, match="permutation"):
            SpMMKernel().aggregate(small_products, features16, "gcn", order=order)

    def test_matches_oracle_with_order(self, small_products, features16):
        order = randomized_order(small_products, seed=8)
        out, _ = SpMMKernel().aggregate(small_products, features16, "mean", order=order)
        reference = gather_reduce_reference(small_products, features16, "mean")
        np.testing.assert_allclose(out, reference, atol=3e-5)


class TestTelemetry:
    def test_publishes_kernel_mkl_span(self, small_products, features16):
        tracer, metrics = obs.enable()
        try:
            _, stats = SpMMKernel().aggregate(small_products, features16, "gcn")
        finally:
            obs.disable()
        spans = [s.to_record() for s in tracer.spans() if s.name == "kernel.mkl"]
        assert len(spans) == 1
        span = spans[0]
        assert span["attrs"]["aggregator"] == "gcn"
        assert span["counters"]["gathers"] == stats.gathers
        snapshot = metrics.snapshot()
        assert any(name.startswith("kernel.mkl.") for name in snapshot)

    def test_attribution_covers_mkl(self):
        from repro.perf.attribution import SPAN_VARIANTS

        assert SPAN_VARIANTS["kernel.mkl"] == "mkl"
