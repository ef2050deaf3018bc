"""Edge-case kernel tests: degenerate graphs and awkward shapes.

Every kernel must survive (and stay correct on): the empty graph, a
graph of isolated vertices, a single-vertex graph, feature widths that
do not divide the 16-lane vector width, and task sizes larger than the
vertex count — on the serial executor and on real workers.  A malformed
processing order is the one input every kernel must refuse.
"""

import numpy as np
import pytest

from repro.graphs import CSRGraph
from repro.kernels import (
    BasicKernel,
    CompressedFusedKernel,
    CompressedKernel,
    FusedKernel,
    SpMMKernel,
    UpdateParams,
)
from repro.nn import aggregate
from repro.parallel import ChunkExecutor
from repro.tensors.compression import VECTOR_LANES

EXECUTORS = [lambda: ChunkExecutor(1), lambda: ChunkExecutor(2)]
EXECUTOR_IDS = ["serial", "thread2"]


def _features(n, f, seed=0, sparsity=0.3):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, f)).astype(np.float32)
    h[rng.random((n, f)) < sparsity] = 0.0
    return h


def _params(f_in, f_out=6, seed=0):
    rng = np.random.default_rng(seed)
    return UpdateParams(
        weight=(rng.standard_normal((f_in, f_out)) * 0.2).astype(np.float32),
        bias=(rng.standard_normal(f_out) * 0.1).astype(np.float32),
    )


def _all_kernel_runs(graph, h, executor_factory):
    """Run every kernel variant once; yield (name, output, reference)."""
    reference = aggregate(graph, h, "gcn")
    params = _params(h.shape[1])
    fused_reference = params.apply(reference)

    out, _ = BasicKernel(executor=executor_factory()).aggregate(graph, h, "gcn")
    yield "basic", out, reference
    out, _ = CompressedKernel(executor=executor_factory()).aggregate(graph, h, "gcn")
    yield "compression", out, reference
    out, _, _ = FusedKernel(block_size=4, executor=executor_factory()).run_layer(
        graph, h, params, "gcn"
    )
    yield "fusion", out, fused_reference
    out, _, _ = CompressedFusedKernel(
        block_size=4, executor=executor_factory()
    ).run_layer(graph, h, params, "gcn")
    yield "combined", out, fused_reference


@pytest.mark.parametrize("executor_factory", EXECUTORS, ids=EXECUTOR_IDS)
class TestDegenerateGraphs:
    def test_empty_graph(self, executor_factory):
        graph = CSRGraph.from_edges(0, [], name="empty")
        h = np.zeros((0, 8), dtype=np.float32)
        for name, out, reference in _all_kernel_runs(graph, h, executor_factory):
            assert out.shape == reference.shape, name
            assert out.shape[0] == 0

    def test_all_isolated_vertices(self, executor_factory):
        graph = CSRGraph.from_edges(9, [], name="isolated")
        h = _features(9, 8, seed=1)
        for name, out, reference in _all_kernel_runs(graph, h, executor_factory):
            np.testing.assert_allclose(out, reference, atol=1e-5, err_msg=name)
        # With no neighbors, GCN aggregation reduces to h / (D+1) = h.
        np.testing.assert_allclose(
            aggregate(graph, h, "gcn"), h, atol=1e-6
        )

    def test_single_vertex_graph(self, executor_factory):
        graph = CSRGraph.from_edges(1, [], name="lonely")
        h = _features(1, 5, seed=2)
        for name, out, reference in _all_kernel_runs(graph, h, executor_factory):
            np.testing.assert_allclose(out, reference, atol=1e-5, err_msg=name)

    def test_self_loop_only_graph(self, executor_factory):
        graph = CSRGraph.from_edges(4, [(v, v) for v in range(4)], name="loops")
        h = _features(4, 7, seed=3)
        for name, out, reference in _all_kernel_runs(graph, h, executor_factory):
            np.testing.assert_allclose(out, reference, atol=1e-5, err_msg=name)


@pytest.mark.parametrize("executor_factory", EXECUTORS, ids=EXECUTOR_IDS)
@pytest.mark.parametrize("width", [1, 13, VECTOR_LANES + 1, 3 * VECTOR_LANES + 5])
def test_feature_width_not_divisible_by_vector_lanes(executor_factory, width, star10):
    """Widths with a vector-tail remainder stay exact in every kernel."""
    assert width % VECTOR_LANES != 0
    h = _features(star10.num_vertices, width, seed=4)
    for name, out, reference in _all_kernel_runs(star10, h, executor_factory):
        np.testing.assert_allclose(out, reference, atol=1e-5, err_msg=name)


class TestOversizedTaskSize:
    def test_task_size_larger_than_vertex_count(self, star10):
        h = _features(star10.num_vertices, 6, seed=5)
        reference = aggregate(star10, h, "gcn")
        for executor in (ChunkExecutor(1), ChunkExecutor(4)):
            kernel = BasicKernel(task_size=10_000, executor=executor)
            out, stats = kernel.aggregate(star10, h, "gcn")
            np.testing.assert_allclose(out, reference, atol=1e-5)
            assert stats.tasks == 1  # one chunk owns the whole graph

    def test_oversized_blocks_per_task(self, star10):
        h = _features(star10.num_vertices, 6, seed=6)
        params = _params(6)
        reference = params.apply(aggregate(star10, h, "gcn"))
        kernel = FusedKernel(block_size=64, blocks_per_task=99)
        out, _, stats = kernel.run_layer(star10, h, params, "gcn")
        np.testing.assert_allclose(out, reference, atol=1e-5)
        assert stats.tasks == 1
        assert stats.blocks == 1

    def test_compressed_oversized_task(self, star10):
        h = _features(star10.num_vertices, 6, seed=7)
        reference = aggregate(star10, h, "gcn")
        kernel = CompressedKernel(task_size=10_000)
        out, stats = kernel.aggregate(star10, h, "gcn")
        np.testing.assert_allclose(out, reference, atol=1e-5)
        assert stats.tasks == 1


def _run_with_order(kernel, graph, h, order):
    if hasattr(kernel, "run_layer"):
        return kernel.run_layer(graph, h, _params(h.shape[1]), "gcn", order=order)
    return kernel.aggregate(graph, h, "gcn", order=order)


@pytest.mark.parametrize(
    "kernel_type",
    [BasicKernel, CompressedKernel, FusedKernel, CompressedFusedKernel, SpMMKernel],
)
def test_malformed_order_rejected(kernel_type, star10):
    """Outputs are ``np.empty``: an order that skips a vertex would hand
    back uninitialised rows, so anything but a permutation raises."""
    n = star10.num_vertices
    h = _features(n, 6, seed=8)
    out_of_range = np.arange(n)
    out_of_range[0] = n
    negative = np.arange(n)
    negative[-1] = -1
    for bad in (np.zeros(n, dtype=np.int64), out_of_range, negative, np.arange(n - 1)):
        with pytest.raises(ValueError, match="order must"):
            _run_with_order(kernel_type(), star10, h, bad)
    _run_with_order(kernel_type(), star10, h, np.arange(n)[::-1].copy())
    if kernel_type is BasicKernel:
        with pytest.raises(ValueError, match="order must"):
            BasicKernel().aggregate_backward(star10, h, "gcn", order=np.zeros(n, int))
