"""Edge-case kernel tests: degenerate graphs and awkward shapes.

The kernel, and the paper's variants as the value plane runs them
(fusion: the pass then the layer's sweep over row blocks; compression:
the pass over the S3 format's round trip; combined: both), must survive
(and stay correct on): the empty graph, a graph of isolated vertices, a
single-vertex graph, feature widths that do not divide the 16-lane
vector width, and task and block sizes larger than the vertex count —
on one lane and on two and three (under the ``always_split`` fixture,
on the graph and on a shuffled relabel of it, each bitwise equal to one
lane).  A malformed processing order is refused by the relabel, before
any kernel sees it.
"""

import numpy as np
import pytest

from repro import lanes
from repro.graphs import CSRGraph, apply_order
from repro.kernels import BasicKernel
from repro.nn import aggregate
from repro.nn.layers import output_sweep, sweep_bounds
from repro.tensors.compression import VECTOR_LANES

#: Lane counts; the ids name the threads a split runs on.
LANE_COUNTS = [1, 2, 3]
LANE_IDS = ["serial", "thread2", "thread3"]


def _features(n, f, seed=0, sparsity=0.3):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, f)).astype(np.float32)
    h[rng.random((n, f)) < sparsity] = 0.0
    return h


@pytest.fixture
def kernel_runs(always_split, run_variant, update_params):
    """``runs(graph, h, count)``: every variant on ``count`` lanes on the
    graph and on a shuffled relabel of it, each bitwise equal to one
    lane; yields (name, output, reference).  The sweeps run blocks of
    :data:`repro.lanes.MIN_SLICE` rows, so a 100-row graph has blocks
    for three lanes."""

    def outputs(graph, h, params):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.nn.layers.SWEEP_ROWS", lanes.MIN_SLICE)
            return {
                name: run_variant(name, graph, h, "gcn", params)[0]
                for name in ("basic", "compression", "fusion", "combined")
            }

    def runs(graph, h, count):
        params = update_params(h.shape[1], 6)
        shuffled = np.random.default_rng(0).permutation(graph.num_vertices)
        for graph, h in ((graph, h), (apply_order(graph, shuffled), h[shuffled])):
            reference = aggregate(graph, h, "gcn")
            fused_reference = params.apply(reference)
            always_split(1)
            serial = outputs(graph, h, params)
            always_split(count)
            for name, out in outputs(graph, h, params).items():
                assert np.array_equal(out, serial[name]), name
                fused = name in ("fusion", "combined")
                yield name, out, fused_reference if fused else reference

    return runs


@pytest.mark.parametrize("count", LANE_COUNTS, ids=LANE_IDS)
class TestDegenerateGraphs:
    def test_empty_graph(self, kernel_runs, count):
        graph = CSRGraph.from_edges(0, [], name="empty")
        h = np.zeros((0, 8), dtype=np.float32)
        for name, out, reference in kernel_runs(graph, h, count):
            assert out.shape == reference.shape, name
            assert out.shape[0] == 0

    def test_all_isolated_vertices(self, kernel_runs, count):
        # 100 vertices: enough tasks of 4 rows for three lanes to split.
        graph = CSRGraph.from_edges(100, [], name="isolated")
        h = _features(100, 8, seed=1)
        for name, out, reference in kernel_runs(graph, h, count):
            np.testing.assert_allclose(out, reference, atol=1e-5, err_msg=name)
        # With no neighbors, GCN aggregation reduces to h / (D+1) = h.
        np.testing.assert_allclose(
            aggregate(graph, h, "gcn"), h, atol=1e-6
        )

    def test_single_vertex_graph(self, kernel_runs, count):
        graph = CSRGraph.from_edges(1, [], name="lonely")
        h = _features(1, 5, seed=2)
        for name, out, reference in kernel_runs(graph, h, count):
            np.testing.assert_allclose(out, reference, atol=1e-5, err_msg=name)

    def test_self_loop_only_graph(self, kernel_runs, count):
        graph = CSRGraph.from_edges(100, [(v, v) for v in range(100)], name="loops")
        h = _features(100, 7, seed=3)
        for name, out, reference in kernel_runs(graph, h, count):
            np.testing.assert_allclose(out, reference, atol=1e-5, err_msg=name)


@pytest.mark.parametrize("count", LANE_COUNTS, ids=LANE_IDS)
@pytest.mark.parametrize("width", [1, 13, VECTOR_LANES + 1, 3 * VECTOR_LANES + 5])
def test_feature_width_not_divisible_by_vector_lanes(kernel_runs, count, width, star10):
    """Widths with a vector-tail remainder stay exact in every kernel."""
    assert width % VECTOR_LANES != 0
    h = _features(star10.num_vertices, width, seed=4)
    for name, out, reference in kernel_runs(star10, h, count):
        np.testing.assert_allclose(out, reference, atol=1e-5, err_msg=name)


class TestOversizedTaskSize:
    def test_task_size_larger_than_vertex_count(self, always_split, star10):
        h = _features(star10.num_vertices, 6, seed=5)
        reference = aggregate(star10, h, "gcn")
        for count in (1, 4):
            always_split(count)
            kernel = BasicKernel()  # T = 64 > the star's vertices
            out, stats = kernel.aggregate(star10, h, "gcn")
            np.testing.assert_allclose(out, reference, atol=1e-5)
            assert stats.tasks == 1  # one task owns the whole graph

    def test_oversized_blocks_per_task(self, star10, update_params):
        """A graph smaller than one sweep block is one block."""
        h = _features(star10.num_vertices, 6, seed=6)
        params = update_params(6, 6)
        reference = params.apply(aggregate(star10, h, "gcn"))
        a, _ = BasicKernel().aggregate(star10, h, "gcn")
        out, _ = output_sweep(a, params.weight, params.bias, True, tf=False)
        np.testing.assert_allclose(out, reference, atol=1e-5)
        assert sweep_bounds(star10.num_vertices) == [0, star10.num_vertices]


@pytest.mark.parametrize("kernel_type", [BasicKernel])
def test_malformed_order_rejected(kernel_type, star10):
    """Outputs are ``np.empty``: an order that skips a vertex would hand
    back uninitialised rows.  A kernel takes no order (Section 4.4 is a
    relabel), and the relabel refuses anything but a permutation."""
    n = star10.num_vertices
    h = _features(n, 6, seed=8)
    out_of_range = np.arange(n)
    out_of_range[0] = n
    negative = np.arange(n)
    negative[-1] = -1
    for bad in (np.zeros(n, dtype=np.int64), out_of_range, negative, np.arange(n - 1)):
        with pytest.raises(ValueError, match="order must be a permutation"):
            apply_order(star10, bad)
    with pytest.raises(TypeError):
        kernel_type().aggregate(star10, h, "gcn", order=np.arange(n))
    reverse = np.arange(n)[::-1].copy()
    relabelled, _ = kernel_type().aggregate(
        apply_order(star10, reverse), h[reverse], "gcn"
    )
    natural, _ = kernel_type().aggregate(star10, h, "gcn")
    np.testing.assert_allclose(relabelled[np.argsort(reverse)], natural, atol=1e-5)
