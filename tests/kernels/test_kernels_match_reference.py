"""The value-plane contract: every kernel matches the reference oracle.

Graphite's whole premise is that its optimizations are semantics-
preserving — these tests enforce it for every execution strategy, both
aggregators, multiple graphs, and graphs relabelled by Section 4.4's
processing orders.
"""

import numpy as np
import pytest

from repro.graphs import (
    apply_order,
    locality_order,
    randomized_order,
    synthetic_features,
)
from repro.kernels import (
    BasicKernel,
    CompressedFusedKernel,
    CompressedKernel,
    DistGNNKernel,
    FusedKernel,
    SpMMKernel,
    UpdateParams,
)
from repro.nn import aggregate

AGG_KERNELS = [DistGNNKernel(), SpMMKernel(), BasicKernel(), CompressedKernel()]


def _params(f_in, f_out, seed=0):
    rng = np.random.default_rng(seed)
    return UpdateParams(
        weight=(rng.standard_normal((f_in, f_out)) * 0.2).astype(np.float32),
        bias=rng.standard_normal(f_out).astype(np.float32) * 0.1,
    )


@pytest.mark.parametrize("kernel", AGG_KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("aggregator", ["gcn", "mean"])
def test_aggregation_kernels_match_oracle(small_products, kernel, aggregator):
    h = synthetic_features(small_products, 24, seed=1, sparsity=0.4)
    reference = aggregate(small_products, h, aggregator)
    out, stats = kernel.aggregate(small_products, h, aggregator)
    np.testing.assert_allclose(out, reference, atol=2e-4)
    assert stats.gathers == small_products.num_edges + small_products.num_vertices


@pytest.mark.parametrize("kernel", AGG_KERNELS, ids=lambda k: k.name)
def test_kernels_on_corner_graphs(kernel, star10, chain20, grid16):
    for graph in (star10, chain20, grid16):
        h = synthetic_features(graph, 8, seed=2)
        reference = aggregate(graph, h, "gcn")
        out, _ = kernel.aggregate(graph, h, "gcn")
        np.testing.assert_allclose(out, reference, atol=1e-4)


@pytest.mark.parametrize(
    "order_fn", [randomized_order, locality_order], ids=["random", "locality"]
)
def test_order_does_not_change_results(small_products, order_fn):
    """Section 4.4 as a relabel: run on the relabelled graph, map the
    rows back, get the natural result."""
    h = synthetic_features(small_products, 16, seed=3)
    reference = aggregate(small_products, h, "gcn")
    order = order_fn(small_products)
    relabelled = apply_order(small_products, order)
    for kernel in (BasicKernel(), CompressedKernel(), SpMMKernel()):
        out, _ = kernel.aggregate(relabelled, h[order], "gcn")
        np.testing.assert_allclose(out[np.argsort(order)], reference, atol=1e-4)


@pytest.mark.parametrize("keep", [True, False], ids=["training", "inference"])
@pytest.mark.parametrize(
    "kernel_cls", [FusedKernel, CompressedFusedKernel], ids=["fusion", "combined"]
)
def test_fused_kernels_match_unfused_layer(small_products, kernel_cls, keep):
    h = synthetic_features(small_products, 20, seed=4, sparsity=0.5)
    params = _params(20, 12)
    reference_a = aggregate(small_products, h, "gcn")
    reference_h = params.apply(reference_a)

    kernel = kernel_cls()
    h_out, a, stats = kernel.run_layer(
        small_products, h, params, "gcn", keep_aggregation=keep
    )
    np.testing.assert_allclose(h_out, reference_h, atol=2e-4)
    if keep:
        np.testing.assert_allclose(a, reference_a, atol=2e-4)
    else:
        assert a is None


def test_fused_vs_basic_same_flop_count(small_products):
    """Fusion restructures, it does not change the arithmetic volume
    (apart from the update GEMM it absorbs)."""
    h = synthetic_features(small_products, 16, seed=6)
    params = _params(16, 16)
    _, basic_stats = BasicKernel().aggregate(small_products, h, "gcn")
    _, _, fused_stats = FusedKernel().run_layer(small_products, h, params, "gcn")
    gemm_flops = 2.0 * small_products.num_vertices * 16 * 16
    assert fused_stats.flops == pytest.approx(basic_stats.flops + gemm_flops)
