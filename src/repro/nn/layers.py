"""GNN layers: aggregation phase + update phase, forward and backward.

A layer computes ``h_k = ReLU(W_k a_k + b_k)`` where ``a_k`` is the
aggregation of ``h_{k-1}`` (Eqs. 1-2, Table 2).  The backward pass
"computes the gradients of h_{k-1}, a_k, W_k, and b_k; it has one more
GEMM than the forward propagation" (Section 7.1.1) — visible below as the
two GEMMs in :meth:`GNNLayer.backward` versus one in ``forward``.

Aggregation is linear, so ``Â (h W) = (Â h) W``: a layer that narrows
(``out_features < in_features``) runs *transform-first* and gathers the
narrower ``h W`` rows — the same result up to fp32 reassociation for
``out/in`` of the memory traffic.  The order is decided from the layer's
shape and position alone (:func:`transform_first`), never configured.

The algebra of a layer lives here once, as plain functions of arrays
that run *around* an aggregation the caller performs: forward is
:func:`layer_operand` → aggregate → :func:`layer_output`, backward is
:func:`grad_pre_activation` → :func:`grads_before_aggregation` →
transposed aggregate → :func:`grads_after_aggregation`.  Three
executors call them and keep only what is theirs — :class:`GNNLayer`
(dropout, dtype casts, a kernel), the shard runtime
(:mod:`repro.parallel.sharded`: halo fill, boards, barriers) and the
serving block forward (:mod:`repro.nn.minibatch`: block operators).

Every array a call returns is fresh unless the caller lent the memory:
``forward(out=)`` and ``backward(grad_in=, own_grad_out=)`` are how a
:class:`~repro.nn.model.Workspace` owner (the ``Trainer``) has the big
GEMMs land in buffers it reuses every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .. import lanes
from ..graphs.csr import CSRGraph
from ..kernels.base import AggregationKernel, KernelStats
from . import functional as F
from .aggregate import aggregate, aggregate_backward, canonical_aggregator


def transform_first(in_features: int, out_features: int, static_input: bool) -> bool:
    """Whether a layer runs ``Â (h W)`` rather than ``(Â h) W``.

    * ``static_input`` — ``h`` is the same un-dropped matrix on every
      call (a model's input features), so ``Â h`` is a constant worth
      keeping: aggregate-first whatever the shape;
    * otherwise a narrowing layer (``out < in``) runs transform-first
      and gathers ``out``-wide rows;
    * every other layer runs aggregate-first and gathers ``in``-wide rows.
    """
    return not static_input and out_features < in_features


def _matmul(x: np.ndarray, w: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """``x w`` into ``out`` (fresh without one), one row slice per lane."""
    if out is None:
        out = np.empty((len(x), w.shape[1]), np.result_type(x, w))
    lanes.split(
        len(x), x.nbytes + out.nbytes,
        lambda lo, hi: np.matmul(x[lo:hi], w, out=out[lo:hi]),
    )
    return out


def _matmul_t(x: np.ndarray, g: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """``xᵀ g`` into ``out`` (fresh without one): a reduction over the
    rows of both, so the lanes cut the wider *output* axis — each lane
    reads its slice of the wider operand and all of the narrower one."""
    if out is None:
        out = np.empty((x.shape[1], g.shape[1]), np.result_type(x, g))
    work = x.nbytes + g.nbytes
    if x.shape[1] >= g.shape[1]:
        lanes.split(
            x.shape[1], work,
            lambda lo, hi: np.matmul(x[:, lo:hi].T, g, out=out[lo:hi]),
        )
    else:
        lanes.split(
            g.shape[1], work,
            lambda lo, hi: np.matmul(x.T, g[:, lo:hi], out=out[:, lo:hi]),
        )
    return out


def layer_operand(
    h: np.ndarray, weight: np.ndarray, tf: bool, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The rows a layer's aggregation gathers: ``h W`` for a
    transform-first (``tf``) layer, landing in ``out`` if lent; ``h``
    itself otherwise."""
    return _matmul(h, weight, out) if tf else h


def layer_output(
    agg: np.ndarray, weight: np.ndarray, bias: np.ndarray, activation: bool,
    tf: bool, out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``act(agg W + b)`` from an aggregate-first layer's ``agg = Â h``
    (the GEMM lands in ``out`` if lent), ``act(agg + b)`` from a
    transform-first layer's ``agg = Â (h W)``.  Bias and ReLU are applied
    in place on that GEMM result, or on ``agg`` itself when ``tf``; each
    lane runs all three on its own rows."""
    if tf:
        pre = agg
    elif out is None:
        pre = np.empty((len(agg), weight.shape[1]), np.result_type(agg, weight))
    else:
        pre = out

    def rows(lo: int, hi: int) -> None:
        block = pre[lo:hi]
        if not tf:
            np.matmul(agg[lo:hi], weight, out=block)
        block += bias
        if activation:
            np.maximum(block, 0.0, out=block)

    lanes.split(len(pre), pre.nbytes + (0 if tf else agg.nbytes), rows)
    return pre


def grad_pre_activation(
    grad_out: np.ndarray, h_out: np.ndarray, activation: bool, in_place: bool,
    grad_b: Optional[np.ndarray] = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """``(grad_pre, grad_b)``: the ReLU-masked output gradient and its
    column sum.

    The mask is read from the layer's output ``h_out`` (``h > 0`` is
    ``pre > 0``) and applied once as a masked multiply, in place on
    ``grad_out`` when the caller owns it (``in_place``) — no ``where``
    with a float literal, which would promote an fp32 gradient to fp64.
    Each lane masks its own rows, with a boolean mask of those rows
    only.  The column sum runs on one lane: a sum over rows is one
    sequential chain per column, and a column cut of it measured slower
    than the serial sum.  ``grad_b`` lends the bias gradient's buffer.
    """
    if activation:
        masked = grad_out if in_place else np.empty(grad_out.shape, grad_out.dtype)
        lanes.split(
            len(masked), 3 * masked.nbytes,
            lambda lo, hi: np.multiply(
                grad_out[lo:hi], h_out[lo:hi] > 0, out=masked[lo:hi]
            ),
        )
        grad_out = masked
    return grad_out, np.sum(grad_out, axis=0, out=grad_b)


def grads_before_aggregation(
    grad_pre: np.ndarray, a: Optional[np.ndarray], weight: np.ndarray,
    need_input_grad: bool, grad_w: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> "tuple[Optional[np.ndarray], Optional[np.ndarray]]":
    """``(grad_W, operand)`` of the transposed aggregation.

    An aggregate-first layer (``a = Â h`` kept by forward) has
    ``grad_W = aᵀ grad_pre`` now, and its operand is ``grad_pre Wᵀ`` —
    the extra GEMM of Section 7.1.1, skipped with the aggregation when
    no input gradient is needed (operand ``None``).  A transform-first
    layer (``a is None``) has no ``grad_W`` yet: its operand is
    ``grad_pre`` itself, ``out``-wide.  ``grad_w`` and ``out`` lend the
    two results' buffers.
    """
    if a is None:
        if out is not None:
            out[...] = grad_pre
            return None, out
        return None, grad_pre
    grad_w = _matmul_t(a, grad_pre, grad_w)
    return grad_w, _matmul(grad_pre, weight.T, out) if need_input_grad else None


def grads_after_aggregation(
    g: np.ndarray, h_in: np.ndarray, weight: np.ndarray, need_input_grad: bool,
    grad_w: Optional[np.ndarray] = None, out: Optional[np.ndarray] = None,
) -> "tuple[np.ndarray, Optional[np.ndarray]]":
    """A transform-first layer's ``(grad_W, grad_h)`` from
    ``g = Âᵀ grad_pre``: ``h_inᵀ g`` and, if needed, ``g Wᵀ``.  (An
    aggregate-first layer's ``Âᵀ`` result already *is* ``grad_h``.)"""
    grad_w = _matmul_t(h_in, g, grad_w)
    return grad_w, _matmul(g, weight.T, out) if need_input_grad else None


@dataclass
class LayerCache:
    """Intermediates stashed by forward for use in backward.

    ``a`` is the full aggregation feature matrix — the reason training
    cannot use the fused inference buffer trick of Figure 5c.  It is
    ``None`` for a transform-first layer, which is how backward knows
    the order forward took.  ``pre_activation`` is rectified in place by
    an activation layer, so it then holds the post-ReLU values (it *is*
    the layer's output): backward reads only its sign pattern, and
    ``h > 0`` is identical to ``pre > 0``.
    """

    h_in: np.ndarray
    a: Optional[np.ndarray]
    pre_activation: np.ndarray
    dropout_mask: Optional[np.ndarray] = None
    agg_stats: Optional[KernelStats] = None  # set when a kernel ran aggregation
    #: The operand the aggregation gathered: ``h_in`` (aggregate-first),
    #: ``h_in @ W`` (transform-first), ``None`` when the caller supplied
    #: the aggregation and nothing was gathered.
    gathered: Optional[np.ndarray] = None


@dataclass
class LayerGrads:
    """Parameter and input gradients produced by one backward call.

    ``h_in`` is ``None`` when the caller asked for no input gradient
    (the model's first layer: nothing consumes ``∂L/∂X``).  From a
    backward pass over a workspace it is borrowed memory: the layer
    below masks it in place with its ReLU pattern, and the next epoch
    overwrites it.
    """

    weight: np.ndarray
    bias: np.ndarray
    h_in: Optional[np.ndarray] = None
    agg_stats: Optional[KernelStats] = None  # set when a kernel ran backward


class GNNLayer:
    """One GCN or GraphSAGE layer.

    Args:
        in_features: length of the input feature vectors.
        out_features: length of the output feature vectors.
        aggregator: ``"gcn"`` or ``"mean"`` (Table 2).
        activation: apply ReLU after the FC update (both paper models do;
            the final classification layer typically does not).
        dropout: input-feature dropout rate applied in training.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        aggregator: str = "gcn",
        activation: bool = True,
        dropout: float = 0.0,
        seed: int = 0,
    ) -> None:
        aggregator = canonical_aggregator(aggregator)
        if aggregator not in ("gcn", "mean"):
            raise ValueError(
                f"aggregator must be one of ('gcn', 'mean'), got {aggregator!r}"
            )
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature sizes must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.aggregator = aggregator
        self.activation = activation
        self.dropout = dropout
        rng = np.random.default_rng(seed)
        self.weight = F.xavier_uniform(in_features, out_features, rng)
        self.bias = np.zeros(out_features, dtype=np.float32)
        self._rng = rng

    # ------------------------------------------------------------------
    def _aggregate(
        self, graph: CSRGraph, h: np.ndarray, kernel: Optional[AggregationKernel]
    ) -> "tuple[np.ndarray, Optional[KernelStats]]":
        """``Â h`` through ``kernel``, or the SpMM oracle without one."""
        if kernel is not None:
            return kernel.aggregate(graph, h, self.aggregator)
        return aggregate(graph, h, self.aggregator), None

    def _aggregate_backward(
        self, graph: CSRGraph, grad: np.ndarray, kernel: Optional[AggregationKernel]
    ) -> "tuple[np.ndarray, Optional[KernelStats]]":
        """``Âᵀ grad`` through ``kernel`` when it provides
        ``aggregate_backward`` (e.g. the cached-CSC backward of
        :class:`~repro.kernels.BasicKernel`); otherwise the transpose-
        SpMM fallback runs."""
        if kernel is not None and hasattr(kernel, "aggregate_backward"):
            return kernel.aggregate_backward(
                graph, np.ascontiguousarray(grad), self.aggregator
            )
        return aggregate_backward(graph, grad, self.aggregator), None

    def forward(
        self,
        graph: CSRGraph,
        h_in: np.ndarray,
        training: bool = False,
        kernel: Optional[AggregationKernel] = None,
        static_input: bool = False,
        aggregated: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> "tuple[np.ndarray, LayerCache]":
        """Aggregation and update; returns (h_out, cache).

        ``kernel`` swaps the SpMM oracle for one of the optimized
        execution strategies (e.g. a multi-worker ``BasicKernel``); the
        update GEMM and the cache layout are unchanged.

        The order of the two phases follows from shape and position
        (:func:`transform_first`): a transform-first layer computes
        ``pre = Â (h W) + b``, every other layer ``pre = (Â h) W + b``.
        ``static_input`` declares ``h_in`` the same un-dropped matrix on
        every call, and ``aggregated`` lets the caller hand the kept
        ``Â h_in`` back instead of gathering it again.

        ``out`` lends an aggregate-first layer a ``(V, out_features)``
        buffer in the working dtype: the GEMM lands there and ``h_out``
        *is* that buffer.  Without it ``h_out`` is a fresh array.  Either
        way bias and ReLU are applied in place — on ``out``, on the fresh
        GEMM result, or on the aggregation's fresh output.
        """
        if h_in.shape[1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input features, got {h_in.shape[1]}"
            )
        if aggregated is not None and aggregated.shape != h_in.shape:
            raise ValueError(
                f"aggregated shape {aggregated.shape} != input shape {h_in.shape}"
            )
        h_dropped, mask = F.dropout(h_in, self.dropout, self._rng, training=training)
        if aggregated is not None and mask is not None:
            raise ValueError("a supplied aggregation cannot follow input dropout")
        static_input = static_input or aggregated is not None
        tf = transform_first(self.in_features, self.out_features, static_input)
        if aggregated is not None:
            agg, gathered, agg_stats = aggregated, None, None
        else:
            gathered = layer_operand(h_dropped, self.weight, tf)
            agg, agg_stats = self._aggregate(graph, gathered, kernel)
        # The working dtype (fp32 normally, fp64 when a gradcheck drives
        # the pipeline at double precision) is the operands'; nothing
        # here widens or copies.
        pre = layer_output(
            agg, self.weight, self.bias, self.activation, tf, out=out
        )
        a = None if tf else agg
        cache = LayerCache(
            h_in=h_dropped, a=a, pre_activation=pre, dropout_mask=mask,
            agg_stats=agg_stats, gathered=gathered,
        )
        return pre, cache

    def backward(
        self,
        graph: CSRGraph,
        grad_out: np.ndarray,
        cache: LayerCache,
        kernel: Optional[AggregationKernel] = None,
        need_input_grad: bool = True,
        grad_in: Optional[np.ndarray] = None,
        own_grad_out: bool = False,
    ) -> LayerGrads:
        """Chain rule through update and aggregation, in forward's order.

        The ReLU backward is *fused* into the update backward
        (:func:`grad_pre_activation`): the activation mask is applied
        once as a masked multiply and the masked gradient feeds both
        GEMMs directly — one masked BLAS pair per layer, no fp64
        promotion, no extra temporary.  With
        ``own_grad_out`` (the caller will not read ``grad_out`` again —
        it is the layer above's product, not a caller's array) the mask
        is applied to ``grad_out`` in place.  ``grad_in`` lends a
        ``(V, in_features)`` buffer for the ``· Wᵀ`` product.

        ``kernel`` routes the transposed aggregation as in ``forward``.
        An aggregate-first layer needs it (and the ``grad_pre @ Wᵀ``
        GEMM) only for the input gradient, so ``need_input_grad=False``
        skips both; a transform-first layer aggregates ``grad_pre``
        itself, ``out``-wide, and both GEMMs read the result.
        """
        grad_pre, grad_b = grad_pre_activation(
            grad_out, cache.pre_activation, self.activation, own_grad_out
        )
        grad_w, operand = grads_before_aggregation(
            grad_pre, cache.a, self.weight, need_input_grad,
            out=None if cache.a is None else grad_in,
        )
        grad_h, agg_stats = None, None
        if operand is not None:
            g, agg_stats = self._aggregate_backward(graph, operand, kernel)
            if cache.a is None:
                grad_w, grad_h = grads_after_aggregation(
                    g, cache.h_in, self.weight, need_input_grad, out=grad_in
                )
            else:
                grad_h = g
        if grad_h is not None:
            grad_h = F.dropout_grad(grad_h, cache.dropout_mask, self.dropout)
            grad_h = grad_h.astype(cache.h_in.dtype, copy=False)
        return LayerGrads(
            weight=grad_w.astype(self.weight.dtype, copy=False),
            bias=grad_b.astype(self.bias.dtype, copy=False),
            h_in=grad_h,
            agg_stats=agg_stats,
        )

    # ------------------------------------------------------------------
    def parameters(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def apply_grads(self, grads: LayerGrads, lr: float) -> None:
        """Plain SGD step (optimizers in :mod:`repro.nn.optim` wrap this)."""
        self.weight -= lr * grads.weight
        self.bias -= lr * grads.bias

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GNNLayer({self.in_features}->{self.out_features}, "
            f"agg={self.aggregator}, relu={self.activation}, "
            f"dropout={self.dropout})"
        )


def gcn_layer(in_features: int, out_features: int, **kwargs) -> GNNLayer:
    """Convenience constructor for a GCN layer (Table 2, row 1)."""
    return GNNLayer(in_features, out_features, aggregator="gcn", **kwargs)


def sage_layer(in_features: int, out_features: int, **kwargs) -> GNNLayer:
    """Convenience constructor for a GraphSAGE-mean layer (Table 2, row 2)."""
    return GNNLayer(in_features, out_features, aggregator="mean", **kwargs)
