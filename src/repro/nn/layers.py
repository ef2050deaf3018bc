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

:class:`GNNLayer` runs the dense phases as *sweeps* over fixed row
blocks (:func:`output_sweep`, :func:`grads_sweep`; Alg. 2's update per
``B``-vertex block, Section 4.2): each block goes through every phase
on its side of an aggregation while it is in cache, including the next
layer's transform in forward and the layer below's update in backward,
so no ``V x hidden`` gradient is ever formed.

Every array a call returns is fresh unless the caller lent the memory:
``forward(out=)``, ``backward(own_grad_out=)`` and the sweeps'
:class:`SweepBuffers` are how a :class:`~repro.nn.model.Workspace`
owner (the ``Trainer``) has the big GEMMs land in buffers it reuses
every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

import numpy as np

from .. import lanes
from ..graphs.csr import CSRGraph
from ..kernels.base import KernelStats
from . import functional as F
from .aggregate import aggregate, aggregate_backward, canonical_aggregator

if TYPE_CHECKING:  # pragma: no cover - typing only; kernels imports nn
    from ..kernels.basic import BasicKernel


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


#: Rows per block of a dense sweep — Alg. 2's ``B`` (Section 4.2): a
#: block of a 256-wide fp32 hidden layer is 512 KiB, so it is still in
#: a 2 MiB L2 when the next phase reads it.  Measured with the perfbench
#: student (100 -> 256 -> 16) on the 4x products twin, 2-vCPU Xeon, one
#: BLAS thread per lane, median of 40 interleaved epochs: 51.7 ms at
#: 256 rows, 47.6 at 512, 46.0 at 1024 (within the spread of 512, at
#: twice the block scratch).
SWEEP_ROWS = 512

#: Chunks a sweep's blocks are dealt into, in order (fewer when there
#: are fewer blocks).  Lanes take whole chunks, and a chunk accumulates
#: its blocks' parameter-gradient partials in block order into its own
#: accumulator; the chunks are then summed in chunk order.  Both orders
#: depend on the row count and :data:`SWEEP_ROWS` alone, so a sweep is
#: bitwise the same on any number of lanes, and partial storage is this
#: many parameter sets whatever ``V``.
SWEEP_CHUNKS = 4


def sweep_bounds(n: int) -> List[int]:
    """Block bounds of a sweep over ``n`` rows: one block every
    :data:`SWEEP_ROWS` rows.  A tail shorter than
    :data:`repro.lanes.MIN_SLICE` joins the block before it (a one-row
    GEMM runs as a GEMV, whose rounding differs); zero rows are one
    empty block."""
    bounds = list(range(0, n, SWEEP_ROWS)) or [0]
    if len(bounds) > 1 and n - bounds[-1] < lanes.MIN_SLICE:
        bounds.pop()
    return bounds + [n]


def _block_rows(n: int) -> int:
    """The longest block :func:`sweep_bounds` cuts from ``n`` rows."""
    return min(n, SWEEP_ROWS + lanes.MIN_SLICE - 1)


def _sweep(n: int, nbytes: int, body: Callable[[int, int, int, int, bool], None]) -> int:
    """``body(lane, chunk, lo, hi, first)`` for every block of ``n``
    rows, chunk by chunk (``first`` marks a chunk's first block);
    returns the chunk count.  Lanes take whole chunks — ``n`` here
    counts chunks, so the GEMM-row floor :data:`repro.lanes.MIN_SLICE`
    does not apply.  ``lane`` (the lane's first chunk) keys scratch that
    no result depends on; ``chunk`` keys what the result is summed
    from."""
    bounds = sweep_bounds(n)
    blocks = len(bounds) - 1
    chunks = min(SWEEP_CHUNKS, blocks)

    def run(chunk_lo: int, chunk_hi: int) -> None:
        for chunk in range(chunk_lo, chunk_hi):
            start = blocks * chunk // chunks
            for block in range(start, blocks * (chunk + 1) // chunks):
                body(chunk_lo, chunk, bounds[block], bounds[block + 1], block == start)

    lanes.split(chunks, nbytes, run, min_slice=1)
    return chunks


class SweepBuffers:
    """Scratch of the dense sweeps, reused across calls.

    A buffer is keyed by its owner — a lane (block buffers, block
    partials) or a chunk (partial accumulators) — so no two lanes share
    one, and by name, shape and dtype: a model's sweeps ask for the same
    few every epoch.  A :class:`~repro.nn.model.Workspace` keeps one for
    the life of a run; a pass lent none makes a fresh one.
    """

    def __init__(self) -> None:
        self._buffers: Dict[tuple, np.ndarray] = {}

    def get(self, owner: int, name: str, shape: tuple, dtype) -> np.ndarray:
        key = (owner, name, shape, np.dtype(dtype))
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = self._buffers[key] = np.empty(shape, dtype)
        return buffer

    @property
    def nbytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._buffers.values())


def _accumulate(
    buffers: SweepBuffers, lane: int, chunk: int, first: bool, name: str,
    shape: tuple, dtype,
) -> "tuple[np.ndarray, Callable[[], None]]":
    """Where one block's partial of ``name`` lands, and how it is folded
    in: a chunk's first block writes the chunk's accumulator, every later
    block the lane's temporary, which is then added to it."""
    acc = buffers.get(chunk, name, shape, dtype)
    if first:
        return acc, lambda: None
    tmp = buffers.get(lane, name + ".block", shape, dtype)
    return tmp, lambda: np.add(acc, tmp, out=acc)


def _reduce(buffers: SweepBuffers, chunks: int, name: str, shape: tuple, dtype) -> np.ndarray:
    """A fresh array: the chunks' accumulators of ``name`` summed in
    chunk order."""
    total = buffers.get(0, name, shape, dtype).copy()
    for chunk in range(1, chunks):
        total += buffers.get(chunk, name, shape, dtype)
    return total


def output_sweep(
    agg: np.ndarray, weight: np.ndarray, bias: np.ndarray, activation: bool,
    tf: bool, out: Optional[np.ndarray] = None,
    next_weight: Optional[np.ndarray] = None, keep: bool = True,
    buffers: Optional[SweepBuffers] = None,
) -> "tuple[Optional[np.ndarray], Optional[np.ndarray]]":
    """``(h_out, next_operand)``: :func:`layer_output` per row block and,
    with a ``next_weight``, the next (transform-first) layer's
    :func:`layer_operand` of the same block while it is still in cache.

    ``h_out`` lands in ``out`` if lent, as :func:`layer_output` does.
    Without ``keep`` (inference, where only the next layer's transform
    reads a block) the blocks of an aggregate-first layer pass through
    one reused buffer per lane and ``h_out`` is ``None``.  Row slices of
    a GEMM are bitwise the whole product, so the result is
    :func:`layer_output` then :func:`layer_operand` over whole arrays.
    """
    n, width = len(agg), weight.shape[1]
    dtype = agg.dtype if tf else np.result_type(agg, weight)
    if tf:
        pre = agg
    elif keep:
        pre = out if out is not None else np.empty((n, width), dtype)
    else:
        pre = None
    buffers = buffers if buffers is not None else SweepBuffers()
    next_operand = None
    if next_weight is not None:
        next_operand = np.empty(
            (n, next_weight.shape[1]), np.result_type(dtype, next_weight)
        )
    rows = _block_rows(n)

    def body(lane: int, chunk: int, lo: int, hi: int, first: bool) -> None:
        if pre is None:
            block = buffers.get(lane, "h", (rows, width), dtype)[: hi - lo]
        else:
            block = pre[lo:hi]
        h = layer_output(agg[lo:hi], weight, bias, activation, tf, out=block)
        if next_operand is not None:
            layer_operand(h, next_weight, True, out=next_operand[lo:hi])

    nbytes = agg.nbytes + n * width * np.dtype(dtype).itemsize
    _sweep(n, nbytes + (0 if next_operand is None else next_operand.nbytes), body)
    return pre, next_operand


@dataclass
class UpdateGrads:
    """One layer's backward up to its transposed aggregation, the part a
    sweep computes: ``grad_b``, an aggregate-first layer's ``grad_W``,
    and the ``operand`` the transposed aggregation gathers (``None`` when
    nothing is gathered)."""

    weight: Optional[np.ndarray]
    bias: np.ndarray
    operand: Optional[np.ndarray]


@dataclass
class SweptGrads:
    """What :func:`grads_sweep` returns: the upper stage's ``grad_W`` and
    collected ``grad_h``, and the lower stage's :class:`UpdateGrads`."""

    upper_weight: Optional[np.ndarray] = None
    grad_h: Optional[np.ndarray] = None
    lower: Optional[UpdateGrads] = None


def grads_sweep(
    grad: np.ndarray,
    upper: "Optional[tuple[np.ndarray, np.ndarray]]" = None,
    lower: "Optional[tuple]" = None,
    need_grad_h: bool = False,
    in_place: bool = False,
    buffers: Optional[SweepBuffers] = None,
) -> SweptGrads:
    """The dense phases of a backward pass around one transposed
    aggregation, per row block, in two optional stages:

    * ``upper = (h_in, W)`` — a transform-first layer whose
      ``g = Âᵀ grad_pre`` is ``grad``: :func:`grads_after_aggregation`,
      a ``grad_W`` partial and the block's ``grad_h``;
    * ``lower = (h_out, activation, a, W, need_input_grad)`` — the layer
      whose output gradient that ``grad_h`` is (``grad`` itself without
      an upper stage): :func:`grad_pre_activation` then
      :func:`grads_before_aggregation`, ``grad_b`` and ``grad_W``
      partials and the block's rows of the operand it gathers.

    With both, the block's ``grad_h`` lives in a per-lane buffer only:
    no ``V x width`` gradient is formed.  ``need_grad_h`` collects it
    when there is no lower stage.  ``in_place`` says the caller owns
    ``grad``, so a lower stage may mask it in place.  Partials fold as
    :data:`SWEEP_CHUNKS` describes; every result is a fresh array or
    (an unmasked transform-first operand) ``grad`` itself.
    """
    n = len(grad)
    buffers = buffers if buffers is not None else SweepBuffers()
    rows = _block_rows(n)
    result = SweptGrads()
    nbytes = grad.nbytes
    a = None
    if upper is not None:
        h_in, upper_w = upper
        upper_dtype = np.result_type(h_in, grad)
        grad_h_dtype = np.result_type(grad, upper_w)
        grad_h_width = upper_w.shape[0]
        nbytes += h_in.nbytes
        if lower is None and need_grad_h:
            result.grad_h = np.empty((n, grad_h_width), grad_h_dtype)
    if lower is not None:
        h_out, activation, a, weight, need_input_grad = lower
        width = h_out.shape[1]
        x_dtype = grad_h_dtype if upper is not None else grad.dtype
        nbytes += h_out.nbytes + (0 if a is None else a.nbytes)
        if a is None:  # transform-first: the operand is grad_pre itself
            unmasked = upper is None and (in_place or not activation)
            operand = grad if unmasked else np.empty((n, width), x_dtype)
        elif need_input_grad:
            operand = np.empty((n, weight.shape[0]), np.result_type(x_dtype, weight))
        else:
            operand = None
        if operand is not None and operand is not grad:
            nbytes += operand.nbytes
        lower_w_dtype = None if a is None else np.result_type(a, x_dtype)

    def body(lane: int, chunk: int, lo: int, hi: int, first: bool) -> None:
        x, owned = grad[lo:hi], in_place
        if upper is not None:
            if lower is None:
                dest = None if result.grad_h is None else result.grad_h[lo:hi]
            elif a is None:  # lands in the operand, masked there
                dest = operand[lo:hi]
            else:
                dest = buffers.get(lane, "grad_h", (rows, grad_h_width), grad_h_dtype)
                dest = dest[: hi - lo]
            partial, fold = _accumulate(
                buffers, lane, chunk, first, "upper_w", upper_w.shape, upper_dtype
            )
            _, x = grads_after_aggregation(
                x, h_in[lo:hi], upper_w, dest is not None, grad_w=partial, out=dest
            )
            fold()
            owned = True
        if lower is None:
            return
        if a is None and upper is None and operand is not grad:
            operand[lo:hi] = x  # copied, then masked in place
            x, owned = operand[lo:hi], True
        elif activation and not owned:
            buffer = buffers.get(lane, "grad_h", (rows, width), x.dtype)[: hi - lo]
            buffer[...] = x
            x, owned = buffer, True
        partial_b, fold_b = _accumulate(
            buffers, lane, chunk, first, "bias", (width,), x.dtype
        )
        grad_pre, _ = grad_pre_activation(
            x, h_out[lo:hi], activation, owned, grad_b=partial_b
        )
        fold_b()
        if a is not None:
            partial_w, fold_w = _accumulate(
                buffers, lane, chunk, first, "weight", weight.shape, lower_w_dtype
            )
            grads_before_aggregation(
                grad_pre, a[lo:hi], weight, need_input_grad, grad_w=partial_w,
                out=None if operand is None else operand[lo:hi],
            )
            fold_w()

    chunks = _sweep(n, nbytes, body)
    if upper is not None:
        result.upper_weight = _reduce(
            buffers, chunks, "upper_w", upper_w.shape, upper_dtype
        )
    if lower is not None:
        result.lower = UpdateGrads(
            weight=None if a is None else _reduce(
                buffers, chunks, "weight", weight.shape, lower_w_dtype
            ),
            bias=_reduce(buffers, chunks, "bias", (width,), x_dtype),
            operand=operand,
        )
    return result


@dataclass
class LayerCache:
    """Intermediates stashed by forward for use in backward.

    ``a`` is the full aggregation feature matrix — the reason training
    cannot use the fused inference buffer trick of Figure 5c.  It is
    ``None`` for a transform-first layer, which is how backward knows
    the order forward took.  ``pre_activation`` is rectified in place by
    an activation layer, so it then holds the post-ReLU values (it *is*
    the layer's output): backward reads only its sign pattern, and
    ``h > 0`` is identical to ``pre > 0``.  An inference pass that
    swept the output through block buffers keeps neither it nor the next
    layer's ``h_in`` (both ``None``).
    """

    h_in: Optional[np.ndarray]
    a: Optional[np.ndarray]
    pre_activation: Optional[np.ndarray]
    dropout_mask: Optional[np.ndarray] = None
    agg_stats: Optional[KernelStats] = None  # set when a kernel ran aggregation
    #: The next layer's operand ``h_out @ W_next``, when this layer's
    #: sweep ran that transform.
    next_operand: Optional[np.ndarray] = None


@dataclass
class LayerGrads:
    """Parameter and input gradients produced by one backward call.

    ``h_in`` is ``None`` when the caller asked for no input gradient
    (the model's first layer: nothing consumes ``∂L/∂X``) and when the
    layer below's update ran in this layer's sweep (``below``): that
    gradient then only ever exists one row block at a time.
    """

    weight: np.ndarray
    bias: np.ndarray
    h_in: Optional[np.ndarray] = None
    agg_stats: Optional[KernelStats] = None  # set when a kernel ran backward
    #: The layer below's :class:`UpdateGrads`, computed by this layer's
    #: sweep, for the caller to hand to that layer's ``backward``.
    below: Optional[UpdateGrads] = None


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
        self, graph: CSRGraph, h: np.ndarray, kernel: Optional[BasicKernel]
    ) -> "tuple[np.ndarray, Optional[KernelStats]]":
        """``Â h`` through ``kernel``, or the SpMM oracle without one."""
        if kernel is not None:
            return kernel.aggregate(graph, h, self.aggregator)
        return aggregate(graph, h, self.aggregator), None

    def _aggregate_backward(
        self, graph: CSRGraph, grad: np.ndarray,
        kernel: Optional[BasicKernel], live: Optional[np.ndarray],
    ) -> "tuple[np.ndarray, Optional[KernelStats]]":
        """``Âᵀ grad`` through ``kernel``'s transposed layout, gathering
        only the ``live`` rows when given, or the transpose-SpMM oracle
        over every row without one (the dead rows are zero, so the
        result is the same)."""
        if kernel is None:
            return aggregate_backward(graph, grad, self.aggregator), None
        return kernel.aggregate_backward(
            graph, np.ascontiguousarray(grad), self.aggregator, live=live
        )

    def _update(self, cache: LayerCache, need_input_grad: bool) -> tuple:
        """This layer as the lower stage of :func:`grads_sweep`."""
        return (
            cache.pre_activation, self.activation, cache.a, self.weight,
            need_input_grad,
        )

    def forward(
        self,
        graph: CSRGraph,
        h_in: Optional[np.ndarray],
        training: bool = False,
        kernel: Optional[BasicKernel] = None,
        static_input: bool = False,
        aggregated: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
        operand: Optional[np.ndarray] = None,
        next_weight: Optional[np.ndarray] = None,
        keep_output: bool = True,
        buffers: Optional[SweepBuffers] = None,
    ) -> "tuple[Optional[np.ndarray], LayerCache]":
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

        The update runs as one sweep over row blocks
        (:func:`output_sweep`).  ``next_weight`` hands it the next
        layer's transform, which must run transform-first on this
        output un-dropped: each block's ``h W_next`` lands in
        ``cache.next_operand``, and the caller passes that to the next
        layer as ``operand`` (its ``h_in`` then only feeds backward, and
        may be ``None`` at inference).  ``keep_output=False`` sweeps the
        output through block buffers instead of keeping it — the caller
        reads only ``next_operand`` — and returns ``None`` for it.

        ``out`` lends an aggregate-first layer a ``(V, out_features)``
        buffer in the working dtype: the GEMM lands there and ``h_out``
        *is* that buffer.  Without it ``h_out`` is a fresh array.  Either
        way bias and ReLU are applied in place — on ``out``, on the fresh
        GEMM result, or on the aggregation's fresh output.  ``buffers``
        lends the sweep its block scratch.
        """
        if operand is not None:
            if operand.shape[1] != self.out_features or not transform_first(
                self.in_features, self.out_features, False
            ):
                raise ValueError(
                    f"operand of shape {operand.shape} is not this "
                    f"{self.in_features} -> {self.out_features} layer's h W"
                )
            h_dropped, mask, tf = h_in, None, True
            agg, agg_stats = self._aggregate(graph, operand, kernel)
        else:
            if h_in.shape[1] != self.in_features:
                raise ValueError(
                    f"expected {self.in_features} input features, got {h_in.shape[1]}"
                )
            if aggregated is not None and aggregated.shape != h_in.shape:
                raise ValueError(
                    f"aggregated shape {aggregated.shape} != input shape {h_in.shape}"
                )
            h_dropped, mask = F.dropout(
                h_in, self.dropout, self._rng, training=training
            )
            if aggregated is not None and mask is not None:
                raise ValueError("a supplied aggregation cannot follow input dropout")
            static_input = static_input or aggregated is not None
            tf = transform_first(self.in_features, self.out_features, static_input)
            if aggregated is not None:
                agg, agg_stats = aggregated, None
            else:
                agg, agg_stats = self._aggregate(
                    graph, layer_operand(h_dropped, self.weight, tf), kernel
                )
        # The working dtype (fp32 normally, fp64 when a gradcheck drives
        # the pipeline at double precision) is the operands'; nothing
        # here widens or copies.
        pre, next_operand = output_sweep(
            agg, self.weight, self.bias, self.activation, tf, out=out,
            next_weight=next_weight, keep=keep_output, buffers=buffers,
        )
        cache = LayerCache(
            h_in=h_dropped, a=None if tf else agg, pre_activation=pre,
            dropout_mask=mask, agg_stats=agg_stats, next_operand=next_operand,
        )
        return pre, cache

    def backward(
        self,
        graph: CSRGraph,
        grad_out: Union[np.ndarray, UpdateGrads],
        cache: LayerCache,
        kernel: Optional[BasicKernel] = None,
        need_input_grad: bool = True,
        own_grad_out: bool = False,
        below: "Optional[tuple[GNNLayer, LayerCache, bool]]" = None,
        live: Optional[np.ndarray] = None,
        buffers: Optional[SweepBuffers] = None,
    ) -> LayerGrads:
        """Chain rule through update and aggregation, in forward's order.

        The dense phases run as sweeps over row blocks
        (:func:`grads_sweep`), one on each side of the transposed
        aggregation.  ``grad_out`` is ``∂L/∂h_out``, or this layer's
        :class:`UpdateGrads` when the layer above's sweep already ran
        the update backward.  The ReLU backward is fused into the update
        backward (:func:`grad_pre_activation`): the activation mask is
        applied once as a masked multiply and the masked gradient feeds
        both GEMMs directly — no fp64 promotion, no extra temporary.
        With ``own_grad_out`` (the caller will not read ``grad_out``
        again) the mask is applied to ``grad_out`` in place.

        ``below = (layer, cache, need_input_grad)`` names the layer
        underneath, whose output is this layer's un-dropped input: the
        sweep after the aggregation then runs its update backward too,
        block by block, so ``∂L/∂h_in`` is never formed — the result's
        ``h_in`` is ``None`` and its ``below`` holds that layer's
        :class:`UpdateGrads`.

        ``kernel`` routes the transposed aggregation as in ``forward``;
        ``live`` (boolean rows outside which ``grad_out`` is exactly
        zero, e.g. the loss mask) lets it gather only those rows.  An
        aggregate-first layer needs the aggregation (and the
        ``grad_pre @ Wᵀ`` GEMM) only for the input gradient, so
        ``need_input_grad=False`` skips both; a transform-first layer
        aggregates ``grad_pre`` itself, ``out``-wide, and both GEMMs
        read the result.
        """
        if below is not None and cache.dropout_mask is not None:
            raise ValueError("a layer below cannot run in this layer's sweep "
                             "when its output was dropped")
        if isinstance(grad_out, UpdateGrads):
            head = grad_out
        else:
            head = grads_sweep(
                grad_out, lower=self._update(cache, need_input_grad),
                in_place=own_grad_out, buffers=buffers,
            ).lower
        grad_w, grad_h, agg_stats, below_grads = head.weight, None, None, None
        if head.operand is not None:
            g, agg_stats = self._aggregate_backward(graph, head.operand, kernel, live)
            tf = cache.a is None
            if tf or below is not None:
                swept = grads_sweep(
                    g,
                    upper=(cache.h_in, self.weight) if tf else None,
                    lower=None if below is None else below[0]._update(*below[1:]),
                    need_grad_h=need_input_grad, in_place=True, buffers=buffers,
                )
                if tf:
                    grad_w = swept.upper_weight
                grad_h, below_grads = swept.grad_h, swept.lower
            else:
                grad_h = g
        if grad_h is not None:
            grad_h = F.dropout_grad(grad_h, cache.dropout_mask, self.dropout)
            grad_h = grad_h.astype(cache.h_in.dtype, copy=False)
        return LayerGrads(
            weight=grad_w.astype(self.weight.dtype, copy=False),
            bias=head.bias.astype(self.bias.dtype, copy=False),
            h_in=grad_h,
            agg_stats=agg_stats,
            below=below_grads,
        )

    # ------------------------------------------------------------------
    def parameters(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GNNLayer({self.in_features}->{self.out_features}, "
            f"agg={self.aggregator}, relu={self.activation}, "
            f"dropout={self.dropout})"
        )

