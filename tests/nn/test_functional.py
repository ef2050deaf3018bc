"""Unit tests for activation/loss functions with gradient checks."""

import numpy as np
import pytest

from repro.nn import (
    accuracy, cross_entropy, cross_entropy_and_correct, dropout,
    dropout_grad, softmax, xavier_uniform,
)


def numerical_grad(func, x, eps=1e-4):
    """Central-difference gradient of a scalar function."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        high = func(x)
        flat[i] = orig - eps
        low = func(x)
        flat[i] = orig
        out[i] = (high - low) / (2 * eps)
    return grad


class TestDropout:
    def test_eval_mode_identity(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        out, mask = dropout(x, 0.5, rng, training=False)
        np.testing.assert_array_equal(out, x)
        assert mask is None

    def test_training_zeroes_and_scales(self, rng):
        x = np.ones((1000, 10), dtype=np.float32)
        out, mask = dropout(x, 0.5, rng, training=True)
        assert 0.45 <= np.mean(out == 0) <= 0.55
        np.testing.assert_allclose(out[out != 0], 2.0)

    def test_expectation_preserved(self, rng):
        x = np.ones((200, 200), dtype=np.float32)
        out, _ = dropout(x, 0.3, rng, training=True)
        assert abs(out.mean() - 1.0) < 0.05

    def test_grad_applies_same_mask(self, rng):
        x = np.ones((10, 10), dtype=np.float32)
        out, mask = dropout(x, 0.5, rng, training=True)
        grad = dropout_grad(np.ones_like(x), mask, 0.5)
        np.testing.assert_array_equal(grad != 0, out != 0)

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            dropout(np.ones(3), 1.0, rng)


class TestSoftmaxCrossEntropy:
    def test_softmax_rows_sum_to_one(self, rng):
        probs = softmax(rng.standard_normal((7, 5)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-6)

    def test_softmax_shift_invariant(self, rng):
        logits = rng.standard_normal((3, 4))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0), rtol=1e-5)

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]], dtype=np.float32)
        assert cross_entropy(logits, np.array([0, 1]))[0] < 1e-4

    def test_gradient_matches_numerical(self, rng):
        logits = rng.standard_normal((5, 3)).astype(np.float64)
        labels = np.array([0, 1, 2, 1, 0])
        _, grad = cross_entropy(logits.copy(), labels)
        num = numerical_grad(lambda x: cross_entropy(x.copy(), labels)[0],
                             logits.copy())
        np.testing.assert_allclose(grad, num, atol=1e-4)

    def test_mask_restricts_loss(self):
        logits = np.array([[5.0, -5.0], [-5.0, 5.0]], dtype=np.float32)
        labels = np.array([1, 1])  # first is wrong, second right
        mask = np.array([False, True])
        loss, grad = cross_entropy(logits, labels, mask=mask)
        assert loss < 1e-3  # only the correct vertex counts
        np.testing.assert_array_equal(grad[0], 0.0)

    def test_masked_rows_only_in_the_working_dtype(self, rng):
        """Off-mask rows get an exactly-zero gradient, on-mask rows the
        unmasked formula over the masked count, and nothing is promoted
        to float64 on the way."""
        logits = rng.standard_normal((9, 4)).astype(np.float32)
        labels = rng.integers(0, 4, 9)
        mask = np.arange(9) % 3 != 0
        loss, grad = cross_entropy(logits, labels, mask=mask)
        sub_loss, sub_grad = cross_entropy(logits[mask], labels[mask])
        assert grad.dtype == np.float32
        assert loss == sub_loss
        np.testing.assert_array_equal(grad[mask], sub_grad)
        np.testing.assert_array_equal(grad[~mask], 0.0)

    def test_shard_partials_add_up_under_a_global_count(self, rng):
        """Two row blocks, each given the global count, sum to the
        full-batch loss and stack to its gradient; a block that owns no
        masked row contributes zero instead of raising."""
        logits = rng.standard_normal((10, 3)).astype(np.float32)
        labels = rng.integers(0, 3, 10)
        mask = np.array([True, False] * 3 + [False] * 4)
        loss, grad, correct = cross_entropy_and_correct(logits, labels, mask)
        parts = [cross_entropy_and_correct(logits[block], labels[block], mask[block],
                                           count=3)
                 for block in (slice(0, 6), slice(6, 10))]
        assert parts[1][0] == 0.0 and not parts[1][1].any()
        assert parts[0][0] + parts[1][0] == pytest.approx(loss, rel=1e-12)
        np.testing.assert_array_equal(np.vstack([p[1] for p in parts]), grad)
        np.testing.assert_array_equal(np.concatenate([p[2] for p in parts]), correct)
        np.testing.assert_array_equal(correct, logits.argmax(axis=1) == labels)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.ones((2, 2)), np.array([0, 1]), mask=np.zeros(2, bool))

    def test_label_shape_checked(self):
        with pytest.raises(ValueError):
            cross_entropy(np.ones((2, 2)), np.array([0, 1, 0]))


class TestAccuracy:
    def test_perfect(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(logits, np.array([0, 1]), None) == 1.0

    def test_masked(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1]), mask=np.array([True, False])) == 1.0

    def test_empty_mask(self):
        assert accuracy(np.ones((2, 2)), np.array([0, 1]), np.zeros(2, bool)) == 0.0


class TestInit:
    def test_xavier_bounds(self, rng):
        w = xavier_uniform(64, 32, rng)
        assert w.shape == (64, 32)
        assert np.abs(w).max() <= np.sqrt(6.0 / 96)

    def test_xavier_dtype(self, rng):
        assert xavier_uniform(4, 4, rng).dtype == np.float32
