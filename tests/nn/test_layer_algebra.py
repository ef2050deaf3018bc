"""One layer algebra: the phase functions of ``repro.nn.layers``.

``GNNLayer``, the shard runtime and the serving block forward all run a
layer as ``layer_operand`` → aggregate → ``layer_output`` (and the
backward phases around a transposed aggregate).  The guard below keeps
the GEMMs and the ReLU out of the two executors that are not
``nn/layers.py``, so a fourth copy of the algebra cannot grow back
unnoticed.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.graphs import CSRGraph, power_law_graph, synthetic_features
from repro.kernels import BasicKernel
from repro.nn import GNNLayer, build_model
from repro.nn import functional as F
from repro.nn.aggregate import aggregate, aggregate_backward
from repro.nn.layers import (
    SWEEP_ROWS,
    grad_pre_activation,
    grads_after_aggregation,
    grads_before_aggregation,
    layer_operand,
    layer_output,
    transform_first,
)

SRC = Path(repro.__file__).parent
EXECUTORS = ("parallel/sharded.py", "nn/minibatch.py")


def _is_zero(node):
    return isinstance(node, ast.Constant) and node.value == 0


def _algebra_sites(path):
    """``(line, what)`` for every matrix product and every
    ``np.maximum(..., 0)`` in one module."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            sites.append((node.lineno, "@"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name in ("matmul", "dot"):
                sites.append((node.lineno, name))
            elif name == "maximum" and any(_is_zero(arg) for arg in node.args):
                sites.append((node.lineno, "maximum(..., 0)"))
    return sites


class TestGuard:
    @pytest.mark.parametrize("module", EXECUTORS)
    def test_no_layer_algebra_outside_layers(self, module):
        assert _algebra_sites(SRC / module) == []

    @pytest.mark.parametrize("module", EXECUTORS)
    def test_order_decided_by_transform_first(self, module):
        tree = ast.parse((SRC / module).read_text())
        called = {
            node.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert "transform_first" in called

    def test_scan_sees_each_form(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text(
            "import numpy as np\n"
            "a = b @ c\n"
            "a @= c\n"
            "np.matmul(b, c)\n"
            "b.dot(c)\n"
            "np.maximum(a, 0.0)\n"
            "np.maximum(counts, 1)\n"
        )
        assert [what for _, what in _algebra_sites(probe)] == [
            "@", "@", "matmul", "dot", "maximum(..., 0)",
        ]


class TestRelu:
    def test_values(self):
        agg = np.array([[-1.0, 0.0, 2.0]])
        out = layer_output(agg, None, np.zeros(3), activation=True, tf=True)
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_grad_masks_negatives(self):
        g, grad_b = grad_pre_activation(
            np.array([[3.0, 3.0]]), np.array([[-1.0, 0.5]]),
            activation=True, in_place=False,
        )
        np.testing.assert_array_equal(g, [[0.0, 3.0]])
        np.testing.assert_array_equal(grad_b, [0.0, 3.0])

    def test_grad_at_zero_is_zero(self):
        g, _ = grad_pre_activation(
            np.array([[1.0]]), np.array([[0.0]]), activation=True, in_place=False
        )
        assert g[0, 0] == 0.0


class TestPhases:
    @pytest.fixture()
    def graph(self):
        return CSRGraph.from_edges(
            6, np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3], [0, 5]])
        )

    @pytest.mark.parametrize("widths", [(8, 3), (3, 8)], ids=["narrow", "widen"])
    def test_phases_compose_to_the_layer(self, graph, widths):
        """Forward and backward written out phase by phase around the
        oracle aggregation are bitwise ``GNNLayer``'s."""
        rng = np.random.default_rng(0)
        layer = GNNLayer(*widths, seed=1)
        layer.bias[:] = rng.standard_normal(widths[1])
        h = rng.standard_normal((6, widths[0])).astype(np.float32)
        grad_out = rng.standard_normal((6, widths[1])).astype(np.float32)
        out, cache = layer.forward(graph, h)
        grads = layer.backward(graph, grad_out, cache)

        tf = transform_first(*widths, static_input=False)
        assert tf == (widths[1] < widths[0])
        agg = aggregate(graph, layer_operand(h, layer.weight, tf), "gcn")
        a = None if tf else agg
        pre = layer_output(agg, layer.weight, layer.bias, True, tf)
        np.testing.assert_array_equal(pre, out)
        g, grad_b = grad_pre_activation(grad_out, pre, True, in_place=False)
        grad_w, operand = grads_before_aggregation(g, a, layer.weight, True)
        g_agg = aggregate_backward(graph, operand, "gcn")
        if tf:
            grad_w, grad_h = grads_after_aggregation(g_agg, h, layer.weight, True)
        else:
            grad_h = g_agg
        np.testing.assert_array_equal(grad_w, grads.weight)
        np.testing.assert_array_equal(grad_b, grads.bias)
        np.testing.assert_array_equal(grad_h, grads.h_in)

    def test_lent_buffers_receive_the_results(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((5, 3))
        a = rng.standard_normal((5, 4))
        weight = rng.standard_normal((4, 3))
        grad_w, out = np.empty((4, 3)), np.empty((5, 4))
        got_w, operand = grads_before_aggregation(
            g, a, weight, True, grad_w=grad_w, out=out
        )
        assert got_w is grad_w and operand is out
        np.testing.assert_allclose(operand, g @ weight.T)
        # Transform-first: the operand is grad_pre itself, copied if lent.
        lent = np.empty((5, 3))
        got_w, operand = grads_before_aggregation(g, None, weight, True, out=lent)
        assert got_w is None and operand is lent
        np.testing.assert_array_equal(lent, g)
        # No input gradient: an aggregate-first layer has nothing to gather.
        assert grads_before_aggregation(g, a, weight, False)[1] is None


#: Four row blocks, the last one short: every block and chunk boundary
#: of a sweep is crossed.
SWEEP_V = 3 * SWEEP_ROWS + 37


@pytest.fixture(scope="module")
def sweep_task():
    graph = power_law_graph(SWEEP_V, 6.0, seed=8, name="sweep")
    features = synthetic_features(graph, 100, seed=8)
    labels = np.random.default_rng(8).integers(0, 16, SWEEP_V)
    mask = np.random.default_rng(9).random(SWEEP_V) < 0.4
    return graph, features, labels, mask


def _student(dtype):
    model = build_model("gcn", 100, 256, 16, seed=3)
    for layer in model.layers:
        layer.weight = layer.weight.astype(dtype)
        layer.bias = np.random.default_rng(4).standard_normal(
            layer.out_features
        ).astype(dtype)
    return model


def _whole_array_epoch(model, graph, features, labels, mask, kernel):
    """The student's forward and backward as whole-array phase calls —
    the composition the sweeps replaced."""
    l0, l1 = model.layers
    a0, _ = kernel.aggregate(graph, features)
    h = layer_output(a0, l0.weight, l0.bias, True, False)
    t = layer_operand(h, l1.weight, True)
    logits = layer_output(kernel.aggregate(graph, t)[0], l1.weight, l1.bias, False, True)
    _, grad = F.cross_entropy(logits, labels, mask)
    grad_pre1, grad_b1 = grad_pre_activation(grad, logits, False, in_place=False)
    _, operand = grads_before_aggregation(grad_pre1, None, l1.weight, True)
    g, _ = kernel.aggregate_backward(graph, operand)
    grad_w1, grad_h = grads_after_aggregation(g, h, l1.weight, True)
    grad_pre0, grad_b0 = grad_pre_activation(grad_h, h, True, in_place=True)
    grad_w0, _ = grads_before_aggregation(grad_pre0, a0, l0.weight, False)
    return h, logits, grad, [grad_w0, grad_b0, grad_w1, grad_b1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestSweepsAgainstWholeArrays:
    #: The blocked reductions (row blocks, then chunks) reassociate the
    #: sums over ``V`` rows of ``grad_W`` and ``grad_b``.
    RTOL = {np.float32: 2e-5, np.float64: 1e-12}

    def test_forward_is_bitwise_the_whole_array_phases(self, sweep_task, dtype):
        graph, features, labels, mask = sweep_task
        features = features.astype(dtype)
        model, kernel = _student(dtype), BasicKernel()
        h, logits, _, _ = _whole_array_epoch(
            model, graph, features, labels, mask, kernel
        )
        swept, caches = model.forward(graph, features, training=True, kernel=kernel)
        np.testing.assert_array_equal(caches[0].pre_activation, h)
        np.testing.assert_array_equal(swept, logits)
        np.testing.assert_array_equal(model.predict(graph, features, kernel), logits)

    def test_backward_matches_the_whole_array_phases(self, sweep_task, dtype):
        graph, features, labels, mask = sweep_task
        features = features.astype(dtype)
        model, kernel = _student(dtype), BasicKernel()
        _, _, grad, expected = _whole_array_epoch(
            model, graph, features, labels, mask, kernel
        )
        _, caches = model.forward(graph, features, training=True, kernel=kernel)
        grads = model.backward(graph, grad, caches, kernel=kernel, live=mask)
        got = [grads[0].weight, grads[0].bias, grads[1].weight, grads[1].bias]
        for what, g, e in zip(("W0", "b0", "W1", "b1"), got, expected):
            scale = np.abs(e).max()
            np.testing.assert_allclose(
                g, e, rtol=0, atol=self.RTOL[dtype] * scale, err_msg=what
            )
        assert grads[1].h_in is None  # dL/dh1 was never formed


class TestDeadRows:
    """The last layer's transposed aggregation gathers only the loss
    mask's rows; every other row of its operand is exactly zero."""

    def test_live_pass_is_bitwise_the_full_pass(self, sweep_task):
        graph, _, _, mask = sweep_task
        kernel = BasicKernel()
        grad = np.random.default_rng(10).standard_normal((SWEEP_V, 16)).astype(np.float32)
        grad[~mask] = 0.0
        full, full_stats = kernel.aggregate_backward(graph, grad)
        live, live_stats = kernel.aggregate_backward(graph, grad, live=mask)
        np.testing.assert_array_equal(live, full)
        nnz_live = int(graph.degrees()[mask].sum())
        assert live_stats.gathers == nnz_live + SWEEP_V
        assert full_stats.gathers == graph.num_edges + SWEEP_V

    def test_mask_edited_in_place_between_epochs(self, sweep_task):
        """The layout keys on the mask's values, not the array object:
        editing the mask in place between epochs serves the new rows."""
        graph, features, labels, mask = sweep_task
        mask = mask.copy()
        model, kernel = _student(np.float32), BasicKernel()
        rng = np.random.default_rng(11)
        for _ in range(3):
            logits, caches = model.forward(graph, features, training=True, kernel=kernel)
            _, grad = F.cross_entropy(logits, labels, mask)
            live = model.backward(graph, grad, caches, kernel=kernel, live=mask)
            full = model.backward(graph, grad, caches, kernel=kernel)
            for got, expected in zip(live, full):
                np.testing.assert_array_equal(got.weight, expected.weight)
                np.testing.assert_array_equal(got.bias, expected.bias)
            mask[:] = rng.random(SWEEP_V) < 0.4

    def test_malformed_live_mask_is_refused(self, sweep_task):
        graph = sweep_task[0]
        grad = np.zeros((SWEEP_V, 4), np.float32)
        for live in (np.ones(SWEEP_V, int), np.ones(SWEEP_V - 1, bool)):
            with pytest.raises(ValueError, match="live must be"):
                BasicKernel().aggregate_backward(graph, grad, live=live)
