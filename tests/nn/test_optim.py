"""Unit tests for the optimizers."""

import numpy as np
import pytest

from repro.graphs import synthetic_features, uniform_graph
from repro.nn import Adam, SGD, Trainer, build_model, cross_entropy


def _tiny_setup(seed=0):
    graph = uniform_graph(30, 3.0, seed=seed)
    features = synthetic_features(graph, 6, seed=seed)
    labels = (features[:, 0] > 0).astype(np.int64)
    model = build_model("gcn", 6, 8, 2, num_layers=2, seed=seed)
    return graph, features, labels, model


def _one_step_loss(model, graph, features, labels, optimizer, steps=20):
    losses = []
    for _ in range(steps):
        logits, caches = model.forward(graph, features, training=True)
        loss, grad = cross_entropy(logits, labels)
        losses.append(loss)
        grads = model.backward(graph, grad, caches)
        optimizer.step(grads)
    return losses


class TestSGD:
    def test_reduces_loss(self):
        graph, features, labels, model = _tiny_setup()
        losses = _one_step_loss(model, graph, features, labels, SGD(model, lr=0.5))
        assert losses[-1] < losses[0]

    def test_invalid_lr(self):
        _, _, _, model = _tiny_setup()
        with pytest.raises(ValueError):
            SGD(model, lr=0.0)

    def test_grad_count_checked(self):
        _, _, _, model = _tiny_setup()
        with pytest.raises(ValueError):
            SGD(model, lr=0.1).step([])


class TestAdam:
    def test_reduces_loss(self):
        graph, features, labels, model = _tiny_setup(seed=1)
        losses = _one_step_loss(model, graph, features, labels, Adam(model, lr=0.05))
        assert losses[-1] < losses[0]

    def test_bias_correction_first_step(self):
        """First Adam step should move weights by roughly lr, not lr/10."""
        graph, features, labels, model = _tiny_setup(seed=2)
        before = model.layers[0].weight.copy()
        _one_step_loss(model, graph, features, labels, Adam(model, lr=0.01), steps=1)
        delta = np.abs(model.layers[0].weight - before).max()
        assert 1e-4 < delta < 0.1

    def test_faster_than_plain_sgd_on_this_task(self):
        graph, features, labels, model_sgd = _tiny_setup(seed=3)
        _, _, _, model_adam = _tiny_setup(seed=3)
        sgd_losses = _one_step_loss(
            model_sgd, graph, features, labels, SGD(model_sgd, lr=0.01), steps=30
        )
        adam_losses = _one_step_loss(
            model_adam, graph, features, labels, Adam(model_adam, lr=0.01), steps=30
        )
        assert adam_losses[-1] <= sgd_losses[-1] + 1e-6
