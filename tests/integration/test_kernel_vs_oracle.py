"""Kernel-vs-oracle differential suite.

Every chunked kernel runs one engine — a specialized closure call per
chunk through :class:`~repro.kernels.segment.ScaledCSR` — and this suite
is its contract: every kernel variant, aggregator, and processing order
computes the same rows as the per-vertex fp64 oracles
(:func:`gather_reduce_reference` / :func:`aggregate_backward_reference`),
the work counters equal their closed forms (not merely something
plausible), the degenerate shapes — empty graph, edgeless graph, single
vertex, all-zero features — agree too, and training is bitwise
reproducible across executors.
"""

import numpy as np
import pytest

from repro import obs
from repro.graphs import (
    CSRGraph,
    load_dataset,
    locality_order,
    natural_order,
    randomized_order,
    synthetic_features,
)
from repro.kernels import (
    BasicKernel,
    CompressedFusedKernel,
    CompressedKernel,
    FusedKernel,
    PREFETCH_LINES_PER_VECTOR,
    UpdateParams,
)
from repro.nn import Adam, GNNLayer, Trainer, build_model
from repro.nn.aggregate import (
    aggregate_backward_reference,
    gather_reduce_reference,
)
from repro.parallel import ChunkExecutor

AGGREGATORS = ("gcn", "mean", "sum")
ORDERS = ("natural", "randomized", "locality")

#: fp32 sequential accumulation in CSR edge order vs the fp64 oracle.
ATOL = 3e-5


def make_order(graph, name):
    if name == "natural":
        return natural_order(graph)
    if name == "randomized":
        return randomized_order(graph, seed=5)
    return locality_order(graph)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("wikipedia", scale=0.04, seed=9)


@pytest.fixture(scope="module")
def features(graph):
    return synthetic_features(graph, 12, seed=4, sparsity=0.4)


@pytest.fixture(scope="module")
def params():
    layer = GNNLayer(12, 8, aggregator="gcn", activation=True, seed=3)
    return UpdateParams(weight=layer.weight, bias=layer.bias, activation=True)


@pytest.mark.parametrize("order_name", ORDERS)
@pytest.mark.parametrize("aggregator", AGGREGATORS)
class TestEveryVariantMatchesOracle:
    def test_basic(self, graph, features, order_name, aggregator):
        order = make_order(graph, order_name)
        reference = gather_reduce_reference(graph, features, aggregator)
        out, _ = BasicKernel().aggregate(graph, features, aggregator, order=order)
        np.testing.assert_allclose(out, reference, atol=ATOL)

    def test_basic_backward(self, graph, order_name, aggregator):
        order = make_order(graph, order_name)
        rng = np.random.default_rng(6)
        grad_a = rng.standard_normal((graph.num_vertices, 10)).astype(np.float32)
        reference = aggregate_backward_reference(graph, grad_a, aggregator)
        out, _ = BasicKernel().aggregate_backward(
            graph, grad_a, aggregator, order=order
        )
        np.testing.assert_allclose(out, reference, atol=ATOL)

    def test_compressed(self, graph, features, order_name, aggregator):
        order = make_order(graph, order_name)
        reference = gather_reduce_reference(graph, features, aggregator)
        out, _ = CompressedKernel().aggregate(
            graph, features, aggregator, order=order
        )
        np.testing.assert_allclose(out, reference, atol=ATOL)

    def test_fused(self, graph, features, params, order_name, aggregator):
        order = make_order(graph, order_name)
        reference = gather_reduce_reference(graph, features, aggregator)
        h_out, a, _ = FusedKernel().run_layer(
            graph, features, params, aggregator, keep_aggregation=True, order=order
        )
        np.testing.assert_allclose(a, reference, atol=ATOL)
        np.testing.assert_allclose(
            h_out, params.apply(reference.astype(np.float32)), atol=3e-4
        )

    def test_combined(self, graph, features, params, order_name, aggregator):
        order = make_order(graph, order_name)
        reference = gather_reduce_reference(graph, features, aggregator)
        h_out, a, _ = CompressedFusedKernel().run_layer(
            graph, features, params, aggregator, keep_aggregation=True, order=order
        )
        np.testing.assert_allclose(a, reference, atol=ATOL)
        np.testing.assert_allclose(
            h_out, params.apply(reference.astype(np.float32)), atol=3e-4
        )


def expected_prefetches(degrees, order, distance):
    """Alg. 1 line 9: every position with a vertex ``distance`` behind it
    is prefetched once, ``deg + 1`` vectors of two lines each."""
    if not distance:
        return 0
    return PREFETCH_LINES_PER_VECTOR * int((degrees[order[distance:]] + 1).sum())


def expected_blocks(num_vertices, block_size, blocks_per_task):
    span = block_size * blocks_per_task
    return sum(
        -(-(min(start + span, num_vertices) - start) // block_size)
        for start in range(0, num_vertices, span)
    )


class TestClosedFormCounters:
    """The counters are the time plane's inputs, so they are pinned to
    closed forms of graph + order — "plausible" is not good enough."""

    TASK_SIZE = 37
    BLOCK_SIZE, BLOCKS_PER_TASK = 7, 3

    def test_basic_counters_exact(self, graph, features):
        order = randomized_order(graph, seed=5)
        kernel = BasicKernel(task_size=self.TASK_SIZE, prefetch_distance=3)
        _, stats = kernel.aggregate(graph, features, "gcn", order=order)
        n = graph.num_vertices
        assert stats.gathers == graph.num_edges + n
        assert stats.tasks == -(-n // self.TASK_SIZE)
        assert stats.prefetches == expected_prefetches(graph.degrees(), order, 3) > 0
        assert stats.flops == 2.0 * stats.gathers * features.shape[1]
        assert stats.blocks == stats.decompressed_rows == 0

    def test_backward_counters_exact(self, graph):
        """Backward prices the transposed adjacency: same totals, the
        transposed degrees behind the prefetch look-ahead."""
        order = randomized_order(graph, seed=5)
        rng = np.random.default_rng(6)
        grad_a = rng.standard_normal((graph.num_vertices, 10)).astype(np.float32)
        kernel = BasicKernel(task_size=self.TASK_SIZE)
        _, stats = kernel.aggregate_backward(graph, grad_a, "gcn", order=order)
        n = graph.num_vertices
        assert stats.gathers == graph.num_edges + n
        assert stats.tasks == -(-n // self.TASK_SIZE)
        transposed = graph.transpose().degrees()
        assert not np.array_equal(transposed, graph.degrees())
        assert stats.prefetches == expected_prefetches(
            transposed, order, kernel.prefetch_distance
        )

    def test_fused_counters_exact(self, graph, features, params):
        order = randomized_order(graph, seed=5)
        kernel = FusedKernel(self.BLOCK_SIZE, self.BLOCKS_PER_TASK)
        _, _, stats = kernel.run_layer(graph, features, params, "gcn", order=order)
        n = graph.num_vertices
        assert stats.gathers == graph.num_edges + n
        assert stats.tasks == -(-n // (self.BLOCK_SIZE * self.BLOCKS_PER_TASK))
        assert stats.blocks == expected_blocks(
            n, self.BLOCK_SIZE, self.BLOCKS_PER_TASK
        )
        assert stats.prefetches == expected_prefetches(
            graph.degrees(), order, kernel.prefetch_distance
        )
        assert stats.decompressed_rows == 0

    def test_compressed_counters_exact(self, graph, features):
        order = randomized_order(graph, seed=5)
        kernel = CompressedKernel(task_size=self.TASK_SIZE)
        _, stats = kernel.aggregate(graph, features, "gcn", order=order)
        n = graph.num_vertices
        assert stats.gathers == graph.num_edges + n
        assert stats.decompressed_rows == stats.gathers
        assert stats.compressed_rows == n
        assert stats.tasks == -(-n // self.TASK_SIZE)
        assert stats.prefetches == 0  # the compressed kernels issue none

    def test_combined_counters_exact(self, graph, features, params):
        order = randomized_order(graph, seed=5)
        kernel = CompressedFusedKernel(self.BLOCK_SIZE, self.BLOCKS_PER_TASK)
        _, _, stats = kernel.run_layer(graph, features, params, "gcn", order=order)
        n = graph.num_vertices
        assert stats.gathers == graph.num_edges + n
        assert stats.decompressed_rows == stats.gathers
        assert stats.compressed_rows == n
        assert stats.tasks == -(-n // (self.BLOCK_SIZE * self.BLOCKS_PER_TASK))
        assert stats.blocks == expected_blocks(
            n, self.BLOCK_SIZE, self.BLOCKS_PER_TASK
        )
        assert stats.prefetches == 0


class TestDegenerateShapes:
    def test_empty_graph(self):
        graph = CSRGraph.from_edges(0, [])
        h = np.zeros((0, 4), dtype=np.float32)
        out, stats = BasicKernel().aggregate(graph, h, "gcn")
        assert out.shape == (0, 4)
        assert stats.gathers == 0

    def test_single_vertex(self):
        graph = CSRGraph.from_edges(1, [])
        h = np.full((1, 3), 2.0, dtype=np.float32)
        out, _ = BasicKernel().aggregate(graph, h, "gcn")
        np.testing.assert_allclose(out, gather_reduce_reference(graph, h, "gcn"))

    def test_isolated_vertices(self):
        """Edgeless graph: every output row is the scaled self term."""
        graph = CSRGraph.from_edges(6, [])
        h = synthetic_features(graph, 5, seed=1)
        for aggregator in AGGREGATORS:
            out, _ = BasicKernel().aggregate(graph, h, aggregator)
            np.testing.assert_allclose(
                out, gather_reduce_reference(graph, h, aggregator), atol=ATOL
            )

    def test_mixed_isolated_and_connected(self):
        graph = CSRGraph.from_edges(5, [(0, 1), (0, 2), (3, 0)])
        h = synthetic_features(graph, 4, seed=2)
        for order in (None, np.array([4, 0, 3, 1, 2])):
            out, _ = BasicKernel().aggregate(graph, h, "mean", order=order)
            np.testing.assert_allclose(
                out, gather_reduce_reference(graph, h, "mean"), atol=ATOL
            )

    def test_all_zero_feature_rows(self, graph):
        h = np.zeros((graph.num_vertices, 6), dtype=np.float32)
        out, _ = BasicKernel().aggregate(graph, h, "gcn")
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_fused_single_vertex(self):
        graph = CSRGraph.from_edges(1, [])
        h = np.ones((1, 4), dtype=np.float32)
        layer = GNNLayer(4, 2, aggregator="gcn", seed=0)
        params = UpdateParams(weight=layer.weight, bias=layer.bias, activation=True)
        h_out, _, _ = FusedKernel().run_layer(graph, h, params, "gcn")
        reference = params.apply(gather_reduce_reference(graph, h, "gcn").astype(np.float32))
        np.testing.assert_allclose(h_out, reference, atol=ATOL)


def _train(graph, h, labels, executor=None, epochs=3, seed=0):
    """One deterministic training run on the given executor."""
    model = build_model("gcn", h.shape[1], 8, 4, seed=seed)
    kernel = BasicKernel(task_size=37, executor=executor)
    trainer = Trainer(model, Adam(model, lr=0.01), aggregation_kernel=kernel)
    trainer.fit(graph, h, labels, epochs=epochs)
    return trainer


class TestTrainDeterminism:
    """End to end: three epochs on the serial executor, on three threads
    and on a second serial run must produce *bitwise identical* loss
    curves and final weights — each output row is one sequential
    accumulation in CSR edge order whichever worker owns its chunk."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_bitwise_identical_training(self, graph, seed):
        h = synthetic_features(graph, 12, seed=seed, sparsity=0.4)
        labels = np.random.default_rng(seed).integers(0, 4, graph.num_vertices)
        serial = _train(graph, h, labels, seed=seed)
        assert serial.history.backward_stats.gathers > 0
        for executor in (None, ChunkExecutor(3)):
            other = _train(graph, h, labels, executor, seed=seed)
            assert other.history.losses() == serial.history.losses()
            for la, lb in zip(other.model.layers, serial.model.layers):
                assert np.array_equal(la.weight, lb.weight)
                assert np.array_equal(la.bias, lb.bias)


class TestEngineSwitchIsGone:
    """The ``loop`` engine and every switch that selected it are deleted,
    not defaulted."""

    def test_kernels_take_no_engine(self):
        for kernel_type in (
            BasicKernel, CompressedKernel, FusedKernel, CompressedFusedKernel
        ):
            with pytest.raises(TypeError):
                kernel_type(engine="loop")

    def test_trainer_takes_no_engine(self):
        model = build_model("gcn", 4, 4, 2, seed=0)
        optimizer = Adam(model)
        with pytest.raises(TypeError):
            Trainer(model, optimizer, engine="batched")
        with pytest.raises(TypeError):
            Trainer(model, optimizer, backward_engine=False)

    def test_environment_is_not_consulted(self, graph, features, monkeypatch):
        def traced_run():
            tracer, _ = obs.enable()
            try:
                out, _ = BasicKernel().aggregate(graph, features, "gcn")
            finally:
                obs.disable()
            (span,) = [s for s in tracer.spans() if s.name == "kernel.basic"]
            return out, span.to_record()["attrs"]

        out, attrs = traced_run()
        monkeypatch.setenv("REPRO_ENGINE", "loop")
        out_env, attrs_env = traced_run()
        np.testing.assert_array_equal(out_env, out)
        assert attrs_env == attrs
        assert "engine" not in attrs
