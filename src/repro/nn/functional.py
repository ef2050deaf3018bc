"""Elementwise and loss functions with explicit backward passes.

The update phase of both GCN and GraphSAGE is ``ReLU(W a + b)``
(Table 2), and its forward and backward live in :mod:`repro.nn.layers`;
this module holds what training adds: dropout, softmax and
cross-entropy.  Everything
is fp32 numpy with hand-written gradients so the whole training loop stays
dependency-free and inspectable.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def dropout(
    x: np.ndarray, rate: float, rng: np.random.Generator, training: bool = True
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Inverted dropout.

    Returns (output, mask); mask is None in eval mode.  In training a
    fraction ``rate`` of elements is zeroed and survivors are scaled by
    ``1/(1-rate)``; the zeros are what feature compression later exploits.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    keep = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    return (x * keep * scale).astype(x.dtype), keep


def dropout_grad(grad_out: np.ndarray, mask: Optional[np.ndarray], rate: float) -> np.ndarray:
    """Backward of inverted dropout."""
    if mask is None or rate == 0.0:
        return grad_out
    return (grad_out * mask / (1.0 - rate)).astype(grad_out.dtype)


#: Loss-gradient entries with ``|g|`` below this are stored as exactly 0.
#: A converging model drives off-label softmax probabilities below fp32's
#: normal range (``exp(-88)``, and lower still after the ``/ count``), and
#: subnormal fp32 operands make scipy's ``csr_matvecs`` and BLAS 100x+
#: slower per element: the transposed aggregation of a late epoch doubled
#: for values that no weight update can resolve.  The threshold sits eight
#: decades above the subnormal range and far below any gradient that moves
#: a weight; the loss is computed before the flush and does not change.
GRAD_FLUSH = 1e-30


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=1, keepdims=True)`` for a 2-D array, bitwise, with the
    same NaN propagation: one ``np.maximum`` per column runs ~10x faster
    than numpy's strided reduction over a narrow ``(N, C)`` array."""
    out = x[:, :1].copy()
    for j in range(1, x.shape[1]):
        np.maximum(out, x[:, j:j + 1], out=out)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilized; returns a fresh array.

    One private array, step by step in place: the subtraction makes it.
    """
    probs = logits - _row_max(logits)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    mask: Optional[np.ndarray] = None,
    count: Optional[int] = None,
) -> Tuple[float, np.ndarray]:
    """Cross-entropy over the masked rows only, as a mean over ``count``.

    The one loss in the package.  Only the rows ``mask`` selects are
    gathered, softmaxed and scattered back — in the logits' working
    dtype (fp32 normally, fp64 when a gradcheck drives the pipeline at
    double precision); the scalar reduction is fp64.

    Args:
        logits: (N, C) raw scores.
        labels: (N,) int class ids.
        mask: optional boolean (N,) restricting the loss to training
            vertices (standard semi-supervised node classification).
        count: the divisor of the mean; defaults to the number of rows
            selected, which must then be positive.  A shard passes the
            *global* train count with its own rows' slice of the mask,
            so that shard losses and gradients simply add up to the
            full-batch ones.

    Returns:
        ``(loss, grad)``: the selected rows' summed loss over ``count``,
        and its gradient — the logits' shape, exactly zero off the mask
        and wherever ``|grad|`` falls below :data:`GRAD_FLUSH`.
    """
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    dtype = np.result_type(logits.dtype, np.float32)
    if mask is None:
        picked_logits, picked_labels = logits, labels
    else:
        rows = np.flatnonzero(mask)
        picked_logits, picked_labels = logits[rows], labels[rows]
    if count is None:
        count = len(picked_labels)
        if count == 0:
            raise ValueError("loss mask selects no vertices")
    probs = softmax(picked_logits.astype(dtype, copy=False))
    index = np.arange(len(picked_labels))
    picked = probs[index, picked_labels]
    loss_sum = float(-np.log(np.clip(picked, 1e-12, None)).sum(dtype=np.float64))
    probs[index, picked_labels] -= 1.0
    probs /= count
    probs[np.abs(probs) < GRAD_FLUSH] = 0.0
    if mask is None:
        grad = probs
    else:
        grad = np.zeros(logits.shape, dtype=dtype)
        grad[rows] = probs
    return loss_sum / count, grad


def cross_entropy_and_correct(
    logits: np.ndarray,
    labels: np.ndarray,
    mask: Optional[np.ndarray] = None,
    count: Optional[int] = None,
) -> Tuple[float, np.ndarray, np.ndarray]:
    """What one training step needs of the logits, from one pass each.

    ``(loss, grad, correct)``: :func:`cross_entropy` of the masked rows
    plus the boolean (N,) ``argmax == label`` of *every* row, so a single
    argmax serves train and validation accuracy.  The full-batch trainer
    and the shard runtime both call this — the latter with the global
    ``count``.
    """
    loss, grad = cross_entropy(logits, labels, mask, count)
    return loss, grad, logits.argmax(axis=1) == labels


def check_mask(
    mask: Optional[np.ndarray], num_vertices: int, name: str
) -> Optional[np.ndarray]:
    """``mask`` as an array, if it is ``None`` or a 1-D ``bool`` array of
    ``num_vertices`` entries; a ``ValueError`` naming it otherwise.

    The trainers check every mask here once, before any use: an integer
    0/1 array would index rows 0 and 1 where a boolean one selects rows,
    so the loss (which reads a mask as boolean) and the accuracy would
    disagree about which rows are in it.
    """
    if mask is None:
        return None
    array = np.asarray(mask)
    if array.dtype != np.bool_ or array.shape != (num_vertices,):
        raise ValueError(
            f"{name} must be a 1-D bool array of {num_vertices} entries, "
            f"got dtype {array.dtype} and shape {array.shape}"
        )
    return array


def masked_fraction(flags: np.ndarray, mask: Optional[np.ndarray] = None) -> float:
    """Share of true ``flags`` among the (optionally masked) rows."""
    if mask is not None:
        flags = flags[mask]
    if flags.size == 0:
        return 0.0
    return float(flags.mean())


def accuracy(
    logits: np.ndarray, labels: np.ndarray, mask: Optional[np.ndarray] = None
) -> float:
    """Classification accuracy over (optionally masked) vertices."""
    return masked_fraction(logits.argmax(axis=1) == labels, mask)


def xavier_uniform(
    fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Glorot/Xavier initialization for the update weight matrices."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)
