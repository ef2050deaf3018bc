"""Differential gradient suite: numeric central differences vs analytic.

Two layers of defense for the kernel's backward aggregation:

1. **Gradcheck** — every layer configuration (aggregator x activation) x
   both backward execution paths (the kernel-free SpMM oracle, the
   chunked basic kernel) is checked against central-difference numeric
   gradients for weights, bias, and inputs to <= 1e-4 relative error —
   once on a
   narrowing layer (5 -> 4, which runs transform-first) and once on a
   widening one (5 -> 7, aggregate-first), plus a 3-layer model whose
   middle layer is transform-first.  The whole pipeline is
   dtype-preserving, so the checks run at float64 where central
   differences are actually trustworthy.
2. **Property test** — the kernel backward equals the scalar-loop
   ``aggregate_backward_reference`` oracle to 1e-6 on 50 seeded random
   graphs, including the degenerate shapes (isolated vertices,
   self-loops only, empty graph).
"""

import numpy as np
import pytest

from repro.graphs import CSRGraph, synthetic_features, uniform_graph
from repro.kernels import BasicKernel
from repro.kernels.jit import JitKernelCache, KernelSpec
from repro.nn import GNNLayer, GNNModel
from repro.nn.aggregate import aggregate_backward_reference

#: Maximum relative error tolerated between numeric and analytic grads.
GRAD_RTOL = 1e-4

#: Central-difference step — safe at float64 (≈ sqrt(eps) scale).
EPS = 1e-6

AGGREGATORS = ("gcn", "mean")
ACTIVATIONS = (True, False)

#: Execution paths: the transpose-SpMM oracle (no kernel) and the
#: chunked basic kernel.
PATHS = ("oracle", "kernel")


def make_layer(aggregator, activation, in_f=5, out_f=4, seed=0):
    """A float64 layer: weights/bias upcast so gradcheck is meaningful."""
    layer = GNNLayer(
        in_f, out_f, aggregator=aggregator, activation=activation, seed=seed
    )
    layer.weight = layer.weight.astype(np.float64)
    layer.bias = layer.bias.astype(np.float64)
    return layer


def make_kernel(path):
    return None if path == "oracle" else BasicKernel()


def layer_loss(layer, graph, h, kernel, coef):
    """Scalar probe loss: <h_out, coef> — its grad_out is just ``coef``."""
    h_out, _ = layer.forward(graph, h, training=False, kernel=kernel)
    return float((h_out * coef).sum())


def analytic_grads(layer, graph, h, kernel, coef):
    h_out, cache = layer.forward(graph, h, training=False, kernel=kernel)
    assert h_out.dtype == np.float64, "pipeline must preserve float64"
    return layer.backward(graph, coef, cache, kernel=kernel)


def numeric_grad(param, loss_fn):
    """Central differences over every element of ``param`` (in place)."""
    grad = np.zeros_like(param, dtype=np.float64)
    it = np.nditer(param, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        keep = param[idx]
        param[idx] = keep + EPS
        up = loss_fn()
        param[idx] = keep - EPS
        down = loss_fn()
        param[idx] = keep
        grad[idx] = (up - down) / (2.0 * EPS)
        it.iternext()
    return grad


def assert_close(numeric, analytic, what):
    scale = np.maximum(np.abs(numeric) + np.abs(analytic), 1.0)
    rel = np.abs(numeric - analytic) / scale
    assert rel.max() <= GRAD_RTOL, (
        f"{what}: max relative error {rel.max():.3e} > {GRAD_RTOL:.0e}"
    )


@pytest.fixture(scope="module")
def gradcheck_graph():
    return uniform_graph(14, avg_degree=3.0, seed=5, name="gradcheck")


@pytest.fixture(scope="module")
def gradcheck_features(gradcheck_graph):
    rng = np.random.default_rng(7)
    return rng.standard_normal((gradcheck_graph.num_vertices, 5))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("activation", ACTIVATIONS, ids=["relu", "linear"])
@pytest.mark.parametrize("aggregator", AGGREGATORS)
class TestGradcheck:
    """Central-difference checks for every layer type x path, on a
    narrowing layer: 5 -> 4 runs transform-first, ``pre = Â (h W) + b``."""

    OUT_FEATURES = 4

    def test_weight_grad(
        self, gradcheck_graph, gradcheck_features, aggregator, activation, path
    ):
        graph, h = gradcheck_graph, gradcheck_features.copy()
        layer = make_layer(aggregator, activation, out_f=self.OUT_FEATURES)
        kernel = make_kernel(path)
        rng = np.random.default_rng(11)
        coef = rng.standard_normal((graph.num_vertices, layer.out_features))
        grads = analytic_grads(layer, graph, h, kernel, coef)
        numeric = numeric_grad(
            layer.weight, lambda: layer_loss(layer, graph, h, kernel, coef)
        )
        assert_close(numeric, grads.weight, f"weight[{aggregator}/{path}]")

    def test_bias_grad(
        self, gradcheck_graph, gradcheck_features, aggregator, activation, path
    ):
        graph, h = gradcheck_graph, gradcheck_features.copy()
        layer = make_layer(aggregator, activation, out_f=self.OUT_FEATURES)
        kernel = make_kernel(path)
        rng = np.random.default_rng(13)
        coef = rng.standard_normal((graph.num_vertices, layer.out_features))
        grads = analytic_grads(layer, graph, h, kernel, coef)
        numeric = numeric_grad(
            layer.bias, lambda: layer_loss(layer, graph, h, kernel, coef)
        )
        assert_close(numeric, grads.bias, f"bias[{aggregator}/{path}]")

    def test_input_grad(
        self, gradcheck_graph, gradcheck_features, aggregator, activation, path
    ):
        graph, h = gradcheck_graph, gradcheck_features.copy()
        layer = make_layer(aggregator, activation, out_f=self.OUT_FEATURES)
        kernel = make_kernel(path)
        rng = np.random.default_rng(17)
        coef = rng.standard_normal((graph.num_vertices, layer.out_features))
        grads = analytic_grads(layer, graph, h, kernel, coef)
        numeric = numeric_grad(
            h, lambda: layer_loss(layer, graph, h, kernel, coef)
        )
        assert_close(numeric, grads.h_in, f"h_in[{aggregator}/{path}]")


class TestGradcheckWidening(TestGradcheck):
    """The same checks on a widening layer: 5 -> 7 runs aggregate-first,
    ``pre = (Â h) W + b``.  (The parametrization is inherited.)"""

    OUT_FEATURES = 7


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("aggregator", AGGREGATORS)
class TestModelGradcheck:
    """A 5 -> 6 -> 3 -> 4 model: the first layer aggregates its static
    input first, the middle layer narrows and runs transform-first, the
    last widens.  Every parameter gradient of the stacked backward is
    checked numerically; the input gradient is never formed."""

    def make_model(self, aggregator):
        layers = [
            make_layer(aggregator, k < 2, in_f=in_f, out_f=out_f, seed=k)
            for k, (in_f, out_f) in enumerate([(5, 6), (6, 3), (3, 4)])
        ]
        return GNNModel(layers)

    def test_parameter_grads(
        self, gradcheck_graph, gradcheck_features, aggregator, path
    ):
        graph, h = gradcheck_graph, gradcheck_features
        model = self.make_model(aggregator)
        kernel = make_kernel(path)
        coef = np.random.default_rng(19).standard_normal((graph.num_vertices, 4))

        def loss():
            logits, _ = model.forward(graph, h, kernel=kernel)
            return float((logits * coef).sum())

        logits, caches = model.forward(graph, h, kernel=kernel)
        assert logits.dtype == np.float64, "pipeline must preserve float64"
        assert [cache.a is None for cache in caches] == [False, True, False]
        grads = model.backward(graph, coef, caches, kernel=kernel)
        assert grads[0].h_in is None
        for idx, (layer, layer_grads) in enumerate(zip(model.layers, grads)):
            what = f"layer{idx}[{aggregator}/{path}]"
            assert_close(
                numeric_grad(layer.weight, loss), layer_grads.weight, what + ".weight"
            )
            assert_close(
                numeric_grad(layer.bias, loss), layer_grads.bias, what + ".bias"
            )


class TestGradcheckPathAgreement:
    """The two backward paths must agree with each other, not just with
    the numeric gradient: same layer, same probe, near-identical grads."""

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    def test_paths_agree(self, gradcheck_graph, gradcheck_features, aggregator):
        graph, h = gradcheck_graph, gradcheck_features
        per_path = []
        for path in PATHS:
            layer = make_layer(aggregator, True)
            coef = np.random.default_rng(3).standard_normal(
                (graph.num_vertices, layer.out_features)
            )
            per_path.append(
                analytic_grads(layer, graph, h, make_kernel(path), coef)
            )
        base, other = per_path
        np.testing.assert_allclose(other.weight, base.weight, rtol=1e-10)
        np.testing.assert_allclose(other.bias, base.bias, rtol=1e-10)
        np.testing.assert_allclose(other.h_in, base.h_in, rtol=1e-10)


def random_graph(seed):
    """One of 50 seeded random graphs, degenerate shapes included."""
    if seed == 0:
        return CSRGraph.from_edges(0, [])  # empty graph
    if seed == 1:
        return CSRGraph.from_edges(6, [])  # isolated vertices only
    if seed == 2:
        # Self-loops only.
        return CSRGraph.from_edges(5, [(v, v) for v in range(5)])
    if seed == 3:
        # Mixed: isolated vertices + self-loop + ordinary edges.
        return CSRGraph.from_edges(8, [(0, 1), (2, 2), (5, 0), (5, 1)])
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    avg = float(rng.uniform(0.5, 6.0))
    return uniform_graph(n, avg_degree=min(avg, max(n - 1, 1)), seed=seed)


class TestBatchedBackwardMatchesReference:
    """Property test: kernel backward == scalar-loop oracle to 1e-6 on
    50 seeded random graphs (float64 upstream gradient, so the bound is
    about the kernel's algebra, not fp32 rounding)."""

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_reference(self, seed):
        graph = random_graph(seed)
        rng = np.random.default_rng(100 + seed)
        grad_a = rng.standard_normal((graph.num_vertices, 3))
        aggregator = ("gcn", "mean", "sum")[seed % 3]
        reference = aggregate_backward_reference(graph, grad_a, aggregator)
        kernel = BasicKernel()
        out, stats = kernel.aggregate_backward(graph, grad_a, aggregator)
        np.testing.assert_allclose(out, reference, atol=1e-6)
        if graph.num_edges or graph.num_vertices:
            assert stats.gathers == graph.num_edges + graph.num_vertices

    def test_jit_closures_match_reference_directly(self):
        """The raw specialized operator (not just the kernel wrapper)."""
        graph = uniform_graph(25, avg_degree=4.0, seed=9)
        rng = np.random.default_rng(9)
        grad_a = rng.standard_normal((graph.num_vertices, 6))
        reference = aggregate_backward_reference(graph, grad_a, "gcn")
        cache = JitKernelCache()
        spec = KernelSpec(6, "gcn")
        operator = cache.specialize_backward(graph, spec)
        np.testing.assert_allclose(operator(grad_a), reference, atol=1e-6)
        np.testing.assert_allclose(
            operator.rows(7, 19)(grad_a), reference[7:19], atol=1e-6
        )
