"""The value-plane contract: every variant matches the reference oracle.

Graphite's whole premise is that its optimizations are semantics-
preserving — these tests enforce it for the paper's variants as the
value plane runs them, both aggregators, multiple graphs, and graphs
relabelled by Section 4.4's processing orders:

* ``basic`` — :class:`BasicKernel`'s pass (Alg. 1);
* ``compression`` — that pass over the S3 format's round trip;
* ``distgnn`` — DistGNN's partition-parallel form, one
  :func:`repro.parallel.sharded.shard_segment_reduce` per shard of a
  two-way edge-cut partition, reassembled;
* ``fusion`` / ``combined`` — the pass, then the layer's update as a
  sweep over row blocks (S2), without and with the S3 round trip.
"""

import numpy as np
import pytest

from repro.graphs import (
    apply_order,
    build_shards,
    edge_cut_partition,
    locality_order,
    randomized_order,
    synthetic_features,
)
from repro.kernels.segment import ScaledCSR
from repro.nn import aggregate
from repro.nn.aggregate import normalization_factors
from repro.nn.layers import output_sweep
from repro.parallel.sharded import shard_factors, shard_segment_reduce
from repro.perf import VARIANTS, cascade_lake_28
from repro.perf.cost_model import kernel_cost
from repro.perf.traffic import LayerShape


def _distgnn(graph, h, aggregator):
    edge, self_f = normalization_factors(graph, aggregator)
    assignment = edge_cut_partition(graph, 2).assignment
    out = np.empty_like(h)
    gathers = 0
    for shard in build_shards(graph, assignment):
        shard_edge, shard_self = shard_factors(edge, self_f, shard)
        op = ScaledCSR.from_csr(
            shard.indptr, shard.indices, shard_edge, shard_self,
            shard.num_local + shard.num_halo,
        )
        x = np.concatenate([h[shard.local_vertices], h[shard.halo_vertices]])
        out[shard.local_vertices] = shard_segment_reduce(op, x)
        gathers += op.nnz + shard.num_local
    return out, gathers


KERNELS = ["basic", "compression", "distgnn"]


def _run(kernel, run_variant, graph, h, aggregator):
    """One aggregation variant's ``(out, gathers)``."""
    if kernel == "distgnn":
        return _distgnn(graph, h, aggregator)
    out, _, stats = run_variant(kernel, graph, h, aggregator)
    return out, stats.gathers


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("aggregator", ["gcn", "mean"])
def test_aggregation_kernels_match_oracle(
    small_products, run_variant, kernel, aggregator
):
    h = synthetic_features(small_products, 24, seed=1, sparsity=0.4)
    reference = aggregate(small_products, h, aggregator)
    out, gathers = _run(kernel, run_variant, small_products, h, aggregator)
    np.testing.assert_allclose(out, reference, atol=2e-4)
    assert gathers == small_products.num_edges + small_products.num_vertices


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_on_corner_graphs(kernel, run_variant, star10, chain20, grid16):
    for graph in (star10, chain20, grid16):
        h = synthetic_features(graph, 8, seed=2)
        reference = aggregate(graph, h, "gcn")
        out, _ = _run(kernel, run_variant, graph, h, "gcn")
        np.testing.assert_allclose(out, reference, atol=1e-4)


@pytest.mark.parametrize(
    "order_fn", [randomized_order, locality_order], ids=["random", "locality"]
)
def test_order_does_not_change_results(small_products, run_variant, order_fn):
    """Section 4.4 as a relabel: run on the relabelled graph, map the
    rows back, get the natural result."""
    h = synthetic_features(small_products, 16, seed=3)
    reference = aggregate(small_products, h, "gcn")
    order = order_fn(small_products)
    relabelled = apply_order(small_products, order)
    for name in ("basic", "compression"):
        out, _, _ = run_variant(name, relabelled, h[order], "gcn")
        np.testing.assert_allclose(out[np.argsort(order)], reference, atol=1e-4)


@pytest.mark.parametrize("keep", [True, False], ids=["training", "inference"])
@pytest.mark.parametrize("compressed", [False, True], ids=["fusion", "combined"])
def test_fused_kernels_match_unfused_layer(
    small_products, run_variant, update_params, compressed, keep
):
    """Training keeps the layer's output (and ``a``) for backward;
    inference keeps only the next layer's operand ``h_out W_next``."""
    h = synthetic_features(small_products, 20, seed=4, sparsity=0.5)
    params = update_params(20, 12)
    next_weight = update_params(12, 5, seed=1).weight
    reference_a = aggregate(small_products, h, "gcn")
    reference_h = params.apply(reference_a)

    a, _, _ = run_variant("compression" if compressed else "basic",
                          small_products, h, "gcn")
    np.testing.assert_allclose(a, reference_a, atol=2e-4)
    h_out, next_operand = output_sweep(
        a, params.weight, params.bias, True, tf=False,
        next_weight=next_weight, keep=keep,
    )
    np.testing.assert_allclose(next_operand, reference_h @ next_weight, atol=2e-4)
    if keep:
        np.testing.assert_allclose(h_out, reference_h, atol=2e-4)
    else:
        assert h_out is None


def test_fused_vs_basic_same_flop_count(small_products):
    """Fusion restructures, it does not change the arithmetic volume
    (apart from the update GEMM it absorbs): the cost model prices it so."""
    shape = LayerShape(
        small_products.num_vertices, small_products.num_edges, 16, 16
    )
    machine = cascade_lake_28()
    basic = kernel_cost(machine, VARIANTS["basic"], shape, 0.5)
    fused = kernel_cost(machine, VARIANTS["fusion"], shape, 0.5)
    gemm_flops = 2.0 * small_products.num_vertices * 16 * 16
    agg_flops = basic.phases["aggregation"].flops
    assert agg_flops == 2.0 * (shape.num_edges + shape.num_vertices) * 16
    assert fused.phases["aggregation"].flops == pytest.approx(agg_flops)
    assert fused.phases["update"].flops == pytest.approx(gemm_flops)
