"""Unit tests for GNN layers, including a full numerical gradient check."""

import numpy as np
import pytest

from repro.graphs import synthetic_features, uniform_graph
from repro.nn import GNNLayer, aggregate


class TestForward:
    def test_output_shape(self, tiny_graph):
        layer = GNNLayer(4, 6, seed=0)
        h = np.ones((5, 4), dtype=np.float32)
        out, cache = layer.forward(tiny_graph, h)
        assert out.shape == (5, 6)
        assert cache.a.shape == (5, 4)

    def test_matches_manual_computation(self, tiny_graph):
        layer = GNNLayer(3, 2, aggregator="gcn", activation=True, seed=1)
        h = synthetic_features(tiny_graph, 3, seed=2)
        out, _ = layer.forward(tiny_graph, h)
        expected = np.maximum(
            aggregate(tiny_graph, h, "gcn") @ layer.weight + layer.bias, 0.0
        )
        np.testing.assert_allclose(out, expected, atol=1e-5)

    def test_no_activation_layer(self, tiny_graph):
        layer = GNNLayer(3, 2, activation=False, seed=1)
        h = synthetic_features(tiny_graph, 3, seed=2)
        out, _ = layer.forward(tiny_graph, h)
        assert (out < 0).any()  # negatives survive without ReLU

    def test_wrong_width_rejected(self, tiny_graph):
        layer = GNNLayer(4, 2)
        with pytest.raises(ValueError):
            layer.forward(tiny_graph, np.ones((5, 3), dtype=np.float32))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            GNNLayer(0, 4)
        with pytest.raises(ValueError):
            GNNLayer(4, 4, aggregator="sum")

    def test_dropout_only_in_training(self, tiny_graph):
        layer = GNNLayer(8, 4, dropout=0.5, seed=0)
        h = np.ones((5, 8), dtype=np.float32)
        _, cache_eval = layer.forward(tiny_graph, h, training=False)
        _, cache_train = layer.forward(tiny_graph, h, training=True)
        assert cache_eval.dropout_mask is None
        assert cache_train.dropout_mask is not None
        assert (cache_train.h_in == 0).any()


class TestBackward:
    def test_gradient_shapes(self, tiny_graph):
        layer = GNNLayer(4, 3, seed=0)
        h = synthetic_features(tiny_graph, 4, seed=1)
        out, cache = layer.forward(tiny_graph, h, training=True)
        grads = layer.backward(tiny_graph, np.ones_like(out), cache)
        assert grads.weight.shape == layer.weight.shape
        assert grads.bias.shape == layer.bias.shape
        assert grads.h_in.shape == h.shape

    def test_numerical_gradcheck_weight(self):
        """Loss = sum(layer(h)); check dL/dW numerically."""
        graph = uniform_graph(8, 2.0, seed=0)
        layer = GNNLayer(3, 2, activation=True, seed=3)
        h = synthetic_features(graph, 3, seed=4).astype(np.float64)
        h = h.astype(np.float32)

        def loss():
            out, cache = layer.forward(graph, h)
            return float(out.sum()), cache

        base, cache = loss()
        grads = layer.backward(graph, np.ones((8, 2), dtype=np.float32), cache)

        eps = 1e-3
        for idx in [(0, 0), (1, 1), (2, 0)]:
            original = layer.weight[idx]
            layer.weight[idx] = original + eps
            high, _ = loss()
            layer.weight[idx] = original - eps
            low, _ = loss()
            layer.weight[idx] = original
            numeric = (high - low) / (2 * eps)
            assert grads.weight[idx] == pytest.approx(numeric, rel=0.05, abs=1e-2)

    def test_numerical_gradcheck_input(self):
        graph = uniform_graph(6, 2.0, seed=1)
        layer = GNNLayer(2, 2, activation=True, seed=5)
        h = synthetic_features(graph, 2, seed=6)

        out, cache = layer.forward(graph, h)
        grads = layer.backward(graph, np.ones_like(out), cache)

        eps = 1e-3
        for idx in [(0, 0), (3, 1), (5, 0)]:
            original = h[idx]
            h[idx] = original + eps
            high = layer.forward(graph, h)[0].sum()
            h[idx] = original - eps
            low = layer.forward(graph, h)[0].sum()
            h[idx] = original
            numeric = (high - low) / (2 * eps)
            assert grads.h_in[idx] == pytest.approx(numeric, rel=0.05, abs=1e-2)

