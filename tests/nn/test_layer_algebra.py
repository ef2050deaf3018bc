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
from repro.graphs import CSRGraph
from repro.nn import GNNLayer
from repro.nn.aggregate import aggregate, aggregate_backward
from repro.nn.layers import (
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
