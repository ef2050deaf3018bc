"""Multi-layer GNN models — GCN and GraphSAGE stacks.

A K-layer model makes every vertex's output a function of its K-hop
neighborhood (Section 2.1).  The paper evaluates 2- and 3-layer GCN and
GraphSAGE models with hidden width 256; :func:`build_model` constructs
either with arbitrary widths.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..kernels.base import AggregationKernel
from ..obs import get_tracer
from .layers import GNNLayer, LayerCache, LayerGrads


class Workspace:
    """Two reusable ``(V, width)`` buffers per hidden activation.

    For every layer but the last, ``values[k]`` receives layer ``k``'s
    update GEMM (biased and rectified in place, it is ``h_k``) and
    ``grads[k]`` receives layer ``k + 1``'s ``· Wᵀ`` product (masked in
    place by layer ``k``'s backward).  The owner — the ``Trainer`` —
    passes it to ``forward(training=True)`` and ``backward`` every
    epoch, so epoch N+1 allocates nothing of ``V x hidden`` size.

    No-alias rule: buffers are only ever reachable through the caches
    and grads of the pass they were lent to, which the owner drops
    before the next pass; logits are never written here (the last layer
    has no buffers), and a pass without a workspace returns fresh arrays.
    """

    def __init__(self, model: "GNNModel", num_vertices: int, dtype) -> None:
        self.num_vertices = num_vertices
        self.dtype = np.dtype(dtype)
        self.values = [
            np.empty((num_vertices, layer.out_features), dtype=dtype)
            for layer in model.layers[:-1]
        ]
        self.grads = [np.empty_like(value) for value in self.values]


class GNNModel:
    """A stack of :class:`GNNLayer` with full forward/backward."""

    def __init__(self, layers: Sequence[GNNLayer]) -> None:
        if not layers:
            raise ValueError("model needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_features != nxt.in_features:
                raise ValueError(
                    f"layer width mismatch: {prev.out_features} -> {nxt.in_features}"
                )
        self.layers: List[GNNLayer] = list(layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    # ------------------------------------------------------------------
    def forward(
        self,
        graph: CSRGraph,
        features: np.ndarray,
        training: bool = False,
        kernel: Optional[AggregationKernel] = None,
        first_aggregation: Optional[np.ndarray] = None,
        workspace: Optional[Workspace] = None,
    ) -> Tuple[np.ndarray, List[LayerCache]]:
        """Full forward pass; returns logits and per-layer caches.

        ``kernel`` routes every layer's aggregation through an optimized
        execution strategy (possibly multi-worker) instead of the SpMM
        oracle.

        The first layer's input is ``features`` itself — static unless
        that layer drops inputs in training — so it always aggregates
        first and ``caches[0].a`` is ``Â · features``; a caller that kept
        it from an earlier pass over the same graph and features hands
        it back as ``first_aggregation`` and the pass is skipped.

        ``workspace`` lends the hidden layers their output buffers (see
        :class:`Workspace`); the logits are a fresh array regardless.
        """
        h = features
        caches: List[LayerCache] = []
        tracer = get_tracer()
        static_first = not (training and self.layers[0].dropout > 0.0)
        hidden = workspace.values if workspace is not None else ()
        for idx, layer in enumerate(self.layers):
            with tracer.span(
                "layer",
                index=idx,
                in_features=layer.in_features,
                out_features=layer.out_features,
                aggregator=layer.aggregator,
            ):
                static = idx == 0 and static_first
                h, cache = layer.forward(
                    graph, h, training=training, kernel=kernel,
                    static_input=static,
                    aggregated=first_aggregation if static else None,
                    out=hidden[idx] if idx < len(hidden) else None,
                )
            caches.append(cache)
        return h, caches

    def backward(
        self,
        graph: CSRGraph,
        grad_logits: np.ndarray,
        caches: List[LayerCache],
        kernel: Optional[AggregationKernel] = None,
        workspace: Optional[Workspace] = None,
    ) -> List[LayerGrads]:
        """Full backward pass; returns grads aligned with ``self.layers``.

        ``kernel`` routes every layer's aggregation backward
        (``Âᵀ grad_a``) through an optimized execution strategy when it
        provides ``aggregate_backward``, mirroring ``forward``.  Nothing
        consumes the gradient w.r.t. the input features, so the first
        layer is not asked for one (``grads[0].h_in`` is ``None``).

        With a ``workspace`` every hidden gradient lives in borrowed
        memory: layer ``k``'s ``· Wᵀ`` product lands in
        ``workspace.grads[k - 1]``, and each hidden layer masks the
        gradient it is handed in place — that gradient is always the
        layer above's product, never ``grad_logits``.
        """
        if len(caches) != self.num_layers:
            raise ValueError("cache count does not match layer count")
        grads: List[Optional[LayerGrads]] = [None] * self.num_layers
        grad = grad_logits
        tracer = get_tracer()
        for idx in range(self.num_layers - 1, -1, -1):
            with tracer.span(
                "layer.backward",
                index=idx,
                in_features=self.layers[idx].in_features,
                out_features=self.layers[idx].out_features,
                aggregator=self.layers[idx].aggregator,
            ):
                layer_grads = self.layers[idx].backward(
                    graph, grad, caches[idx], kernel=kernel,
                    need_input_grad=idx > 0,
                    grad_in=(
                        workspace.grads[idx - 1]
                        if workspace is not None and idx > 0
                        else None
                    ),
                    own_grad_out=(
                        workspace is not None and idx < self.num_layers - 1
                    ),
                )
            grads[idx] = layer_grads
            grad = layer_grads.h_in
        return grads  # type: ignore[return-value]

    def predict(
        self,
        graph: CSRGraph,
        features: np.ndarray,
        kernel: Optional[AggregationKernel] = None,
    ) -> np.ndarray:
        """Inference-mode logits (no dropout, caches discarded)."""
        logits, _ = self.forward(graph, features, training=False, kernel=kernel)
        return logits

    # ------------------------------------------------------------------
    # Norm capture for the training-run observability layer (obs.events /
    # obs.health): a NaN/Inf anywhere in a tensor makes its L2 norm
    # non-finite, so the norms double as a cheap corruption detector.
    @staticmethod
    def grad_norms(grads: Sequence["LayerGrads"]) -> Dict[str, Dict[str, float]]:
        """Per-layer L2 norms of one backward pass's gradients.

        Keys are layer indices as strings (the JSON event-log layout).
        A layer that was asked for no input gradient (the first one) has
        no ``h_in`` entry.
        """
        norms: Dict[str, Dict[str, float]] = {}
        for idx, grad in enumerate(grads):
            entry = {
                "weight": float(np.linalg.norm(grad.weight)),
                "bias": float(np.linalg.norm(grad.bias)),
            }
            if grad.h_in is not None:
                entry["h_in"] = float(np.linalg.norm(grad.h_in))
            norms[str(idx)] = entry
        return norms

    def weight_norms(self) -> Dict[str, Dict[str, float]]:
        """Per-layer L2 norms of the current parameters."""
        return {
            str(idx): {
                "weight": float(np.linalg.norm(layer.weight)),
                "bias": float(np.linalg.norm(layer.bias)),
            }
            for idx, layer in enumerate(self.layers)
        }

    # ------------------------------------------------------------------
    def parameters(self):
        """Flat list of (layer_idx, name, array) for optimizers."""
        out = []
        for idx, layer in enumerate(self.layers):
            for name, arr in layer.parameters().items():
                out.append((idx, name, arr))
        return out

    def hidden_widths(self) -> List[int]:
        return [layer.out_features for layer in self.layers]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"GNNModel([{inner}])"


def build_model(
    model_type: str,
    in_features: int,
    hidden_features: int,
    num_classes: int,
    num_layers: int = 2,
    dropout: float = 0.0,
    seed: int = 0,
) -> GNNModel:
    """Construct a GCN or GraphSAGE model like the paper's (Section 6).

    All layers but the last apply ReLU; hidden layers share the width.
    """
    if model_type not in ("gcn", "sage"):
        raise ValueError(f"model_type must be 'gcn' or 'sage', got {model_type!r}")
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    aggregator = "gcn" if model_type == "gcn" else "mean"
    widths = [in_features] + [hidden_features] * (num_layers - 1) + [num_classes]
    layers = []
    for k in range(num_layers):
        layers.append(
            GNNLayer(
                widths[k],
                widths[k + 1],
                aggregator=aggregator,
                activation=(k < num_layers - 1),
                dropout=dropout if k > 0 else 0.0,
                seed=seed + k,
            )
        )
    return GNNModel(layers)
