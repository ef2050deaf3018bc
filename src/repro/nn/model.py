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
from .layers import GNNLayer, LayerCache, LayerGrads, SweepBuffers, transform_first


class Workspace:
    """What a training run reuses every epoch: one ``(V, width)`` buffer
    per hidden activation and the dense sweeps' block scratch.

    For every layer but the last, ``values[k]`` receives layer ``k``'s
    update GEMM (biased and rectified in place, it is ``h_k``).
    ``buffers`` holds the sweeps' per-lane block buffers and per-chunk
    gradient partials, whose size depends on the widths, the lane count
    and :data:`~repro.nn.layers.SWEEP_CHUNKS`, not on ``V``.  No gradient of
    a hidden activation is ever ``V`` rows: the sweeps form it one row
    block at a time.  The owner — the ``Trainer`` — passes the workspace
    to ``forward(training=True)`` and ``backward`` every epoch, so epoch
    N+1 allocates nothing of ``V x hidden`` size.

    No-alias rule: buffers are only ever reachable through the caches
    of the pass they were lent to, which the owner drops before the next
    pass; logits and gradients are never written here (the last layer
    has no buffer, and sweep results are fresh arrays), and a pass
    without a workspace returns fresh arrays.
    """

    def __init__(self, model: "GNNModel", num_vertices: int, dtype) -> None:
        self.num_vertices = num_vertices
        self.dtype = np.dtype(dtype)
        self.values = [
            np.empty((num_vertices, layer.out_features), dtype=dtype)
            for layer in model.layers[:-1]
        ]
        self.buffers = SweepBuffers()


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

    def _fused(self, idx: int, training: bool) -> bool:
        """Whether layer ``idx``'s sweep runs layer ``idx + 1``'s dense
        phases too: the next layer is transform-first and takes ``h_idx``
        un-dropped.  Then forward computes ``h_idx W_{idx+1}`` block by
        block, and backward runs layer ``idx``'s update in layer
        ``idx + 1``'s sweep."""
        if idx + 1 >= self.num_layers:
            return False
        nxt = self.layers[idx + 1]
        return transform_first(nxt.in_features, nxt.out_features, False) and not (
            training and nxt.dropout > 0.0
        )

    # ------------------------------------------------------------------
    def forward(
        self,
        graph: CSRGraph,
        features: np.ndarray,
        training: bool = False,
        kernel: Optional[AggregationKernel] = None,
        first_aggregation: Optional[np.ndarray] = None,
        workspace: Optional[Workspace] = None,
        keep_hidden: bool = True,
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

        Each layer's update runs as one sweep over row blocks, and where
        the next layer is transform-first on un-dropped input the sweep
        runs that layer's ``h W`` too (:meth:`_fused`).
        ``keep_hidden=False`` (inference only) then keeps no such hidden
        activation: its blocks pass through reused block buffers, so a
        pass over the benchmark student never holds a ``V x hidden``
        array.

        ``workspace`` lends the hidden layers their output buffers and
        the sweeps their scratch (see :class:`Workspace`); the logits
        are a fresh array regardless.
        """
        if training and not keep_hidden:
            raise ValueError("training keeps every hidden activation for backward")
        h = features
        operand = None
        caches: List[LayerCache] = []
        tracer = get_tracer()
        static_first = not (training and self.layers[0].dropout > 0.0)
        hidden = workspace.values if workspace is not None else ()
        buffers = workspace.buffers if workspace is not None else SweepBuffers()
        for idx, layer in enumerate(self.layers):
            fused = self._fused(idx, training)
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
                    operand=operand,
                    next_weight=self.layers[idx + 1].weight if fused else None,
                    keep_output=keep_hidden or not fused,
                    buffers=buffers,
                )
            operand = cache.next_operand
            caches.append(cache)
        return h, caches

    def backward(
        self,
        graph: CSRGraph,
        grad_logits: np.ndarray,
        caches: List[LayerCache],
        kernel: Optional[AggregationKernel] = None,
        workspace: Optional[Workspace] = None,
        live: Optional[np.ndarray] = None,
    ) -> List[LayerGrads]:
        """Full backward pass; returns grads aligned with ``self.layers``.

        ``kernel`` routes every layer's aggregation backward
        (``Âᵀ grad_a``) through an optimized execution strategy when it
        provides ``aggregate_backward``, mirroring ``forward``.  Nothing
        consumes the gradient w.r.t. the input features, so the first
        layer is not asked for one (``grads[0].h_in`` is ``None``).

        Where forward fused layers ``k`` and ``k + 1``, layer ``k + 1``'s
        sweep after its transposed aggregation runs layer ``k``'s update
        backward, block by block: ``∂L/∂h_k`` is never formed
        (``grads[k + 1].h_in`` is ``None``).  Every other hidden
        gradient is the aggregation's fresh output, which the layer
        below masks in place when a ``workspace`` is lent (without one,
        ``grads[k + 1].h_in`` stays the caller's to keep).

        ``live`` — boolean rows outside which ``grad_logits`` is exactly
        zero (the loss mask) — lets the last layer's transposed
        aggregation gather only those rows; it drops only exact zeros.
        """
        if len(caches) != self.num_layers:
            raise ValueError("cache count does not match layer count")
        grads: List[Optional[LayerGrads]] = [None] * self.num_layers
        grad = grad_logits
        tracer = get_tracer()
        buffers = workspace.buffers if workspace is not None else SweepBuffers()
        last = self.num_layers - 1
        for idx in range(last, -1, -1):
            cache = caches[idx]
            fused = idx > 0 and cache.a is None and cache.dropout_mask is None
            with tracer.span(
                "layer.backward",
                index=idx,
                in_features=self.layers[idx].in_features,
                out_features=self.layers[idx].out_features,
                aggregator=self.layers[idx].aggregator,
            ):
                layer_grads = self.layers[idx].backward(
                    graph, grad, cache, kernel=kernel,
                    need_input_grad=idx > 0,
                    own_grad_out=workspace is not None and idx < last,
                    below=(
                        (self.layers[idx - 1], caches[idx - 1], idx > 1)
                        if fused else None
                    ),
                    live=live if idx == last else None,
                    buffers=buffers,
                )
            grad = layer_grads.below if fused else layer_grads.h_in
            layer_grads.below = None
            grads[idx] = layer_grads
        return grads  # type: ignore[return-value]

    def predict(
        self,
        graph: CSRGraph,
        features: np.ndarray,
        kernel: Optional[AggregationKernel] = None,
    ) -> np.ndarray:
        """Inference-mode logits (no dropout, no hidden activation kept)."""
        logits, _ = self.forward(
            graph, features, training=False, kernel=kernel, keep_hidden=False
        )
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
