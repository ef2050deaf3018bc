"""Unit + property tests for mask-based feature compression (Section 4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensors import (
    MASK_BITS_PER_ELEMENT, compress, compress_matrix, decompress,
    decompress_matrix, traffic_ratio, traffic_saved,
)


class TestVectorRoundTrip:
    def test_exact_round_trip(self):
        vec = np.array([10, 7, 0, 43, 0, 0, 0, 22], dtype=np.float32)
        np.testing.assert_array_equal(decompress(compress(vec)), vec)

    def test_figure6_example(self):
        """The paper's Figure 6 example: payload keeps order, mask marks
        positions."""
        vec = np.array([10, 7, 0, 43, 0, 0, 0, 22], dtype=np.float32)
        compressed = compress(vec)
        np.testing.assert_array_equal(compressed.payload, [10, 7, 43, 22])
        assert compressed.payload.dtype == np.float32
        np.testing.assert_array_equal(np.unpackbits(compressed.mask, count=8),
                                      [1, 1, 0, 1, 0, 0, 0, 1])

    def test_all_zero_vector(self):
        vec = np.zeros(10, dtype=np.float32)
        compressed = compress(vec)
        assert compressed.nonzeros == 0
        np.testing.assert_array_equal(decompress(compressed), vec)

    def test_dense_vector(self):
        vec = np.arange(1, 9, dtype=np.float32)
        compressed = compress(vec)
        assert compressed.nonzeros == 8
        np.testing.assert_array_equal(decompress(compressed), vec)

    def test_mask_is_one_bit_per_element(self):
        vec = np.ones(32, dtype=np.float32)
        compressed = compress(vec)
        assert compressed.mask.nbytes * 8 >= 32 * MASK_BITS_PER_ELEMENT
        assert compressed.mask.nbytes == 4  # exactly ceil(32/8)

    def test_corrupted_mask_rejected(self):
        vec = np.array([1.0, 0.0, 2.0], dtype=np.float32)
        compressed = compress(vec)
        bad = type(compressed)(payload=compressed.payload[:1], mask=compressed.mask,
                               length=compressed.length)
        with pytest.raises(ValueError):
            decompress(bad)


class TestMatrixRoundTrip:
    def test_round_trip(self, rng):
        matrix = rng.standard_normal((40, 50)).astype(np.float32)
        matrix[rng.random((40, 50)) < 0.6] = 0.0
        restored = decompress_matrix(compress_matrix(matrix))
        np.testing.assert_array_equal(restored, matrix)

    def test_fixed_stride_storage(self, rng):
        """Slots keep the original shape — no indirection on random access
        (the Section 4.3 design decision)."""
        matrix = rng.standard_normal((10, 16)).astype(np.float32)
        assert compress_matrix(matrix).slots.shape == matrix.shape

    def test_payload_left_packed(self):
        matrix = np.array([[0, 5, 0, 3]], dtype=np.float32)
        compressed = compress_matrix(matrix)
        np.testing.assert_array_equal(compressed.slots[0, :2], [5, 3])
        assert compressed.counts[0] == 2

    def test_stored_bytes_account_payload_and_mask(self):
        matrix = np.array([[1, 0, 0, 0, 0, 0, 0, 2]], dtype=np.float32)
        compressed = compress_matrix(matrix)
        assert compressed.total_stored_bytes() == 2 * 4 + 1  # 2 floats + 1 mask byte


class TestTrafficMath:
    def test_paper_example_50_percent(self):
        """32-bit features at 50% sparsity save 46.875% (Section 4.3)."""
        assert abs(traffic_saved(0.5) - 0.46875) < 1e-9

    def test_ratio_at_zero_sparsity_exceeds_one(self):
        assert traffic_ratio(0.0) > 1.0  # mask overhead with nothing saved

    def test_break_even_sparsity(self):
        assert traffic_saved(1 / 32) == pytest.approx(0.0)
        assert traffic_saved(0.02) < 0 < traffic_saved(0.05)

    def test_invalid_sparsity_rejected(self):
        for sparsity in (1.5, -0.1):
            with pytest.raises(ValueError):
                traffic_ratio(sparsity)

    def test_measured_matches_analytic(self, rng):
        matrix = rng.standard_normal((64, 128)).astype(np.float32)
        target = 0.5
        matrix[rng.random(matrix.shape) < target] = 0.0
        compressed = compress_matrix(matrix)
        actual_sparsity = 1 - compressed.counts.sum() / matrix.size
        measured = compressed.total_stored_bytes() / compressed.dense_bytes()
        assert measured == pytest.approx(traffic_ratio(actual_sparsity), abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(dtype=np.float32, shape=st.integers(min_value=1, max_value=200),
                  elements=st.floats(min_value=-1e6, max_value=1e6,
                                     allow_nan=False, width=32)))
def test_vector_round_trip_property(vec):
    np.testing.assert_array_equal(decompress(compress(vec)), vec)


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 20), cols=st.integers(1, 40),
       zero_fraction=st.floats(0.0, 1.0), seed=st.integers(0, 100))
def test_matrix_round_trip_property(rows, cols, zero_fraction, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((rows, cols)).astype(np.float32)
    matrix[rng.random((rows, cols)) < zero_fraction] = 0.0
    np.testing.assert_array_equal(decompress_matrix(compress_matrix(matrix)), matrix)
