"""The loss gradient carries no subnormal fp32 entry.

A converging model pushes off-label softmax probabilities below fp32's
normal range, and every later operand they touch (the transposed
aggregation, the weight-gradient GEMMs) runs 100x+ slower per subnormal
element.  ``cross_entropy`` stores ``|g| < GRAD_FLUSH`` as exactly 0,
after the loss is computed, so the loss does not move and shard partials
under a global count still stack to the full-batch gradient bit for bit.
"""

import numpy as np
import pytest

from repro.nn import cross_entropy, cross_entropy_and_correct, functional, softmax

TINY = np.finfo(np.float32).tiny  # smallest normal fp32


def _subnormal(array):
    return (array != 0) & (np.abs(array) < TINY)


@pytest.fixture
def confident():
    """Rows whose off-label logits trail the label by 60-180: spread
    across the window where ``exp`` (or ``exp / count``) is subnormal in
    fp32 and beyond, where it is exactly 0."""
    rng = np.random.default_rng(0)
    rows, classes = 400, 16
    labels = rng.integers(0, classes, rows)
    gaps = rng.uniform(60.0, 180.0, (rows, classes)).astype(np.float32)
    logits = 5.0 - gaps
    logits[np.arange(rows), labels] = 5.0
    mask = rng.random(rows) < 0.6
    return logits, labels, mask


def test_gradient_has_no_subnormal_and_loss_is_unchanged(confident, monkeypatch):
    logits, labels, mask = confident
    flush = functional.GRAD_FLUSH
    loss, grad = cross_entropy(logits, labels, mask)
    monkeypatch.setattr(functional, "GRAD_FLUSH", 0.0)
    raw_loss, raw_grad = cross_entropy(logits, labels, mask)
    assert _subnormal(raw_grad).any()  # the input does reach the window
    assert not _subnormal(grad).any()
    assert loss == raw_loss
    kept = np.abs(raw_grad) >= flush
    np.testing.assert_array_equal(grad[kept], raw_grad[kept])
    np.testing.assert_array_equal(grad[~kept], 0.0)


def test_shard_partials_still_stack_bitwise(confident):
    logits, labels, mask = confident
    _, grad, _ = cross_entropy_and_correct(logits, labels, mask)
    count = int(mask.sum())
    blocks = (slice(0, 150), slice(150, 400))
    parts = [
        cross_entropy_and_correct(logits[b], labels[b], mask[b], count=count)
        for b in blocks
    ]
    np.testing.assert_array_equal(np.vstack([p[1] for p in parts]), grad)


def test_float64_gradients_sit_far_above_the_threshold(rng):
    """What gradcheck drives: ordinary fp64 logits lose no entry."""
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, 6)
    _, grad = cross_entropy(logits, labels)
    assert grad.dtype == np.float64
    assert np.count_nonzero(grad) == grad.size


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_softmax_row_max_is_numpys_reduction(rng, dtype):
    """The column-loop row max is ``max(axis=1)`` bit for bit, NaN rows
    included."""
    logits = rng.standard_normal((50, 7)).astype(dtype)
    logits[3, 2] = np.nan
    shifted = logits - logits.max(axis=1, keepdims=True)
    expected = np.exp(shifted)
    expected /= expected.sum(axis=1, keepdims=True)
    np.testing.assert_array_equal(softmax(logits), expected)
    assert np.isnan(softmax(logits)[3]).all()
