"""Analytic gradients against central differences, at float64 (the
pipeline preserves the dtype): every aggregator x activation x backward
path (the SpMM oracle, the basic kernel) on a narrowing layer (5 -> 4,
transform-first), a widening one (5 -> 7) and a 3-layer model, to 1e-4
relative error.  The kernel backward also equals the scalar-loop oracle
to 1e-6 on 50 seeded random graphs, degenerate shapes included.
"""

import numpy as np
import pytest

from repro.graphs import CSRGraph, uniform_graph
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
    layer = GNNLayer(in_f, out_f, aggregator=aggregator, activation=activation,
                     seed=seed)
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

    def _check(self, graph, h, aggregator, activation, path, seed, param):
        """Central differences against the analytic gradient of one of
        ``weight`` / ``bias`` / ``h_in`` (``h`` itself)."""
        h = h.copy()
        layer = make_layer(aggregator, activation, out_f=self.OUT_FEATURES)
        kernel = make_kernel(path)
        rng = np.random.default_rng(seed)
        coef = rng.standard_normal((graph.num_vertices, layer.out_features))
        grads = analytic_grads(layer, graph, h, kernel, coef)
        wrt = h if param == "h_in" else getattr(layer, param)
        numeric = numeric_grad(wrt, lambda: layer_loss(layer, graph, h, kernel, coef))
        assert_close(numeric, getattr(grads, param),
                     f"{param}[{aggregator}/{path}]")

    @pytest.fixture
    def check(self, gradcheck_graph, gradcheck_features, aggregator, activation,
              path):
        """``check(seed, param)``: :meth:`_check` on this row's layer."""
        return lambda seed, param: self._check(
            gradcheck_graph, gradcheck_features, aggregator, activation, path,
            seed, param)

    def test_weight_grad(self, check):
        check(11, "weight")

    def test_bias_grad(self, check):
        check(13, "bias")

    def test_input_grad(self, check):
        check(17, "h_in")


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

    def test_parameter_grads(
        self, gradcheck_graph, gradcheck_features, aggregator, path
    ):
        graph, h = gradcheck_graph, gradcheck_features
        model = GNNModel([
            make_layer(aggregator, k < 2, in_f=in_f, out_f=out_f, seed=k)
            for k, (in_f, out_f) in enumerate([(5, 6), (6, 3), (3, 4)])])
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
            for param in ("weight", "bias"):
                assert_close(numeric_grad(getattr(layer, param), loss),
                             getattr(layer_grads, param),
                             f"layer{idx}[{aggregator}/{path}].{param}")


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
                (graph.num_vertices, layer.out_features))
            per_path.append(analytic_grads(layer, graph, h, make_kernel(path), coef))
        base, other = per_path
        for param in ("weight", "bias", "h_in"):
            np.testing.assert_allclose(getattr(other, param), getattr(base, param),
                                       rtol=1e-10)


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
        out, stats = BasicKernel().aggregate_backward(graph, grad_a, aggregator)
        np.testing.assert_allclose(out, reference, atol=1e-6)
        if graph.num_edges or graph.num_vertices:
            assert stats.gathers == graph.num_edges + graph.num_vertices

    def test_jit_closures_match_reference_directly(self):
        """The raw specialized operator (not just the kernel wrapper)."""
        graph = uniform_graph(25, avg_degree=4.0, seed=9)
        rng = np.random.default_rng(9)
        grad_a = rng.standard_normal((graph.num_vertices, 6))
        reference = aggregate_backward_reference(graph, grad_a, "gcn")
        operator = JitKernelCache().specialize_backward(graph, KernelSpec(6, "gcn"))
        np.testing.assert_allclose(operator(grad_a), reference, atol=1e-6)
        np.testing.assert_allclose(operator.rows(7, 19)(grad_a), reference[7:19],
                                   atol=1e-6)
