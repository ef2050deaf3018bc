"""Kernel-vs-oracle differential suite.

The value plane runs one kernel — :class:`BasicKernel`, one
:class:`~repro.kernels.segment.ScaledCSR` call per pass — and this suite
is its contract: forward and backward, every aggregator, on the graph
relabelled by each Section 4.4 processing order, it computes the same
rows as the per-vertex fp64 oracles (:func:`gather_reduce_reference` /
:func:`aggregate_backward_reference`).  The paper's other value-plane
variants are pinned against the same oracles as they run now: fusion
(S2) is that pass followed by the layer's block sweep, compression (S3)
feeds it the mask-compressed format's round trip, and combined does
both.  The work counters equal their closed forms (not merely something
plausible), the degenerate shapes — empty graph, edgeless graph, single
vertex, all-zero features — agree too, and training is bitwise
reproducible across lane counts.
"""

import numpy as np
import pytest

from repro.graphs import CSRGraph, apply_order, load_dataset, synthetic_features
from repro.kernels import (
    BasicKernel, PREFETCH_LINES_PER_VECTOR, TASK_SIZE, UpdateParams,
)
from repro.nn import Adam, GNNLayer, Trainer, build_model
from repro.nn.aggregate import (
    aggregate_backward_reference,
    gather_reduce_reference,
)

AGGREGATORS = ("gcn", "mean", "sum")

#: fp32 sequential accumulation in CSR edge order vs the fp64 oracle.
ATOL = 3e-5


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


@pytest.mark.parametrize("order_name", ("natural", "randomized", "locality"))
@pytest.mark.parametrize("aggregator", AGGREGATORS)
class TestEveryVariantMatchesOracle:
    @pytest.fixture
    def check(self, graph, features, params, order_name, aggregator, relabel,
              run_variant):
        """``check(name)``: the variant's ``a`` is the oracle's on the
        relabelled graph, and a fused variant's output its update."""

        def run(name):
            g, h = relabel(graph, features, order_name)
            reference = gather_reduce_reference(g, h, aggregator)
            out, a, _ = run_variant(name, g, h, aggregator, params)
            np.testing.assert_allclose(a, reference, atol=ATOL)
            if out is not a:
                np.testing.assert_allclose(
                    out, params.apply(reference.astype(np.float32)), atol=3e-4
                )

        return run

    def test_basic(self, check):
        check("basic")

    def test_basic_backward(self, graph, features, order_name, aggregator, relabel):
        graph, _ = relabel(graph, features, order_name)
        rng = np.random.default_rng(6)
        grad_a = rng.standard_normal((graph.num_vertices, 10)).astype(np.float32)
        reference = aggregate_backward_reference(graph, grad_a, aggregator)
        out, _ = BasicKernel().aggregate_backward(graph, grad_a, aggregator)
        np.testing.assert_allclose(out, reference, atol=ATOL)

    def test_compressed(self, check):
        check("compression")

    def test_fused(self, check):
        check("fusion")

    def test_combined(self, check):
        check("combined")


def expected_prefetches(degrees, distance):
    """Alg. 1 line 9: every vertex with one ``distance`` ids behind it
    is prefetched once, ``deg + 1`` vectors of two lines each."""
    if not distance:
        return 0
    return PREFETCH_LINES_PER_VECTOR * int((degrees[distance:] + 1).sum())


class TestClosedFormCounters:
    """The counters are the time plane's inputs, so they are pinned to
    closed forms of the graph — "plausible" is not good enough.  Each
    runs on the randomized relabel, whose degree sequence the look-ahead
    walks.  ``T`` is the kernel's fixed 64."""

    @pytest.fixture
    def shuffled(self, graph, features, relabel):
        return relabel(graph, features, "randomized")[0]

    def test_basic_counters_exact(self, shuffled, features):
        kernel = BasicKernel(prefetch_distance=3)
        _, stats = kernel.aggregate(shuffled, features, "gcn")
        n = shuffled.num_vertices
        assert stats.gathers == shuffled.num_edges + n
        assert stats.tasks == -(-n // TASK_SIZE)
        assert stats.prefetches == expected_prefetches(shuffled.degrees(), 3) > 0
        assert stats.flops == 2.0 * stats.gathers * features.shape[1]

    def test_backward_counters_exact(self, shuffled):
        """Backward prices the transposed adjacency: same totals, the
        transposed degrees behind the prefetch look-ahead."""
        rng = np.random.default_rng(6)
        grad_a = rng.standard_normal((shuffled.num_vertices, 10)).astype(np.float32)
        kernel = BasicKernel()
        _, stats = kernel.aggregate_backward(shuffled, grad_a, "gcn")
        n = shuffled.num_vertices
        assert stats.gathers == shuffled.num_edges + n
        assert stats.tasks == -(-n // TASK_SIZE)
        transposed = shuffled.transpose().degrees()
        assert not np.array_equal(transposed, shuffled.degrees())
        assert stats.prefetches == expected_prefetches(
            transposed, kernel.prefetch_distance
        )


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
        for order in (np.arange(5), np.array([4, 0, 3, 1, 2])):
            relabelled, x = apply_order(graph, order), h[order]
            out, _ = BasicKernel().aggregate(relabelled, x, "mean")
            np.testing.assert_allclose(
                out, gather_reduce_reference(relabelled, x, "mean"), atol=ATOL
            )

    def test_all_zero_feature_rows(self, graph):
        h = np.zeros((graph.num_vertices, 6), dtype=np.float32)
        out, _ = BasicKernel().aggregate(graph, h, "gcn")
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_fused_single_vertex(self, run_variant):
        graph = CSRGraph.from_edges(1, [])
        h = np.ones((1, 4), dtype=np.float32)
        layer = GNNLayer(4, 2, aggregator="gcn", seed=0)
        params = UpdateParams(weight=layer.weight, bias=layer.bias, activation=True)
        h_out, _, _ = run_variant("fusion", graph, h, "gcn", params)
        reference = gather_reduce_reference(graph, h, "gcn").astype(np.float32)
        np.testing.assert_allclose(h_out, params.apply(reference), atol=ATOL)


def _train(graph, h, labels, epochs=3, seed=0):
    """One deterministic training run at the current lane count."""
    model = build_model("gcn", h.shape[1], 8, 4, seed=seed)
    kernel = BasicKernel()
    trainer = Trainer(model, Adam(model, lr=0.01), aggregation_kernel=kernel)
    trainer.fit(graph, h, labels, epochs=epochs)
    return trainer


class TestTrainDeterminism:
    """End to end: three epochs on one lane, on a second one-lane run and
    on three lanes must produce *bitwise identical* loss curves and final
    weights — each output row is one sequential accumulation in CSR edge
    order whichever lane owns it."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_bitwise_identical_training(self, always_split, graph, seed):
        h = synthetic_features(graph, 12, seed=seed, sparsity=0.4)
        labels = np.random.default_rng(seed).integers(0, 4, graph.num_vertices)
        always_split(1)
        serial = _train(graph, h, labels, seed=seed)
        assert serial.history.backward_stats.gathers > 0
        for count in (1, 3):
            always_split(count)
            other = _train(graph, h, labels, seed=seed)
            assert other.history.losses() == serial.history.losses()
            for la, lb in zip(other.model.layers, serial.model.layers):
                assert np.array_equal(la.weight, lb.weight)
                assert np.array_equal(la.bias, lb.bias)


class TestEngineSwitchIsGone:
    """The ``loop`` engine and every switch that selected it are deleted,
    not defaulted."""

    def test_kernels_take_no_engine(self):
        with pytest.raises(TypeError):
            BasicKernel(engine="loop")

    def test_trainer_takes_no_engine(self):
        model = build_model("gcn", 4, 4, 2, seed=0)
        optimizer = Adam(model)
        with pytest.raises(TypeError):
            Trainer(model, optimizer, engine="batched")
        with pytest.raises(TypeError):
            Trainer(model, optimizer, backward_engine=False)

    def test_environment_is_not_consulted(
        self, graph, features, monkeypatch, telemetry
    ):
        def traced_run():
            with telemetry() as (tracer, _):
                out, _ = BasicKernel().aggregate(graph, features, "gcn")
            (span,) = [s for s in tracer.spans() if s.name == "kernel.basic"]
            return out, span.to_record()["attrs"]

        out, attrs = traced_run()
        monkeypatch.setenv("REPRO_ENGINE", "loop")
        out_env, attrs_env = traced_run()
        np.testing.assert_array_equal(out_env, out)
        assert attrs_env == attrs
        assert "engine" not in attrs
