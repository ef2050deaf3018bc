"""Optimizers for full-batch GNN training: plain SGD and Adam."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .layers import LayerGrads
from .model import GNNModel


class Optimizer:
    """Base class: applies per-layer gradients to a model's parameters."""

    def __init__(self, model: GNNModel, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.model = model
        self.lr = lr

    def step(self, grads: Sequence[LayerGrads]) -> None:
        if len(grads) != self.model.num_layers:
            raise ValueError("gradient count does not match layer count")
        for layer, grad in zip(self.model.layers, grads):
            self._update(layer, grad)

    def _update(self, layer, grad: LayerGrads) -> None:  # pragma: no cover
        raise NotImplementedError


class SGD(Optimizer):
    """Plain gradient descent: ``param -= lr * grad``."""

    def _update(self, layer, grad: LayerGrads) -> None:
        layer.weight -= self.lr * grad.weight
        layer.bias -= self.lr * grad.bias


class Adam(Optimizer):
    """Adam (Kingma & Ba) — the usual choice for GNN training runs —
    with the paper's moments ``betas = (0.9, 0.999)`` and ``eps = 1e-8``."""

    def __init__(self, model: GNNModel, lr: float = 0.01) -> None:
        super().__init__(model, lr)
        self.beta1, self.beta2 = 0.9, 0.999
        self.eps = 1e-8
        self._t = 0
        self._m: Dict[int, List[np.ndarray]] = {}
        self._v: Dict[int, List[np.ndarray]] = {}

    def step(self, grads: Sequence[LayerGrads]) -> None:
        self._t += 1
        super().step(grads)

    def _update(self, layer, grad: LayerGrads) -> None:
        key = id(layer)
        if key not in self._m:
            self._m[key] = [np.zeros_like(layer.weight), np.zeros_like(layer.bias)]
            self._v[key] = [np.zeros_like(layer.weight), np.zeros_like(layer.bias)]
        for slot, (param, g) in enumerate(
            ((layer.weight, grad.weight), (layer.bias, grad.bias))
        ):
            m = self._m[key][slot]
            v = self._v[key][slot]
            m[...] = self.beta1 * m + (1 - self.beta1) * g
            v[...] = self.beta2 * v + (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1**self._t)
            v_hat = v / (1 - self.beta2**self._t)
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
