"""Unit tests for sparsity measurement and the per-layer profile (Section 2.2)."""

import numpy as np
import pytest

from repro.tensors import SparsityProfile, sparsity


class TestSparsity:
    def test_dense(self):
        assert sparsity(np.ones((3, 3))) == 0.0

    def test_all_zero(self):
        assert sparsity(np.zeros((3, 3))) == 1.0

    def test_half(self):
        matrix = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert sparsity(matrix) == 0.5

    def test_empty(self):
        assert sparsity(np.empty((0, 4))) == 0.0


class TestProfile:
    def test_record_and_query(self):
        profile = SparsityProfile()
        profile.record(0, np.zeros((2, 2)))
        profile.record(0, np.ones((2, 2)))
        profile.record(1, np.array([[0.0, 1.0]]))
        assert profile.mean(0) == 0.5
        assert profile.last(0) == 0.0
        assert profile.layers() == [0, 1]

    def test_missing_layer(self):
        profile = SparsityProfile()
        assert profile.mean(3) == 0.0
        assert profile.last(3) == 0.0

    def test_summary_renders(self):
        profile = SparsityProfile()
        profile.record(0, np.zeros((2, 2)))
        assert "layer" in profile.summary()

    def test_add_validates_range(self):
        profile = SparsityProfile()
        profile.add(0, 0.5)
        assert profile.last(0) == 0.5
        with pytest.raises(ValueError):
            profile.add(0, 1.5)
        with pytest.raises(ValueError):
            profile.add(0, -0.1)

    def test_to_dict_layout(self):
        profile = SparsityProfile()
        profile.add(0, 0.0)
        profile.add(0, 0.2)
        profile.add(1, 0.6)
        doc = profile.to_dict()
        assert doc["per_layer"] == {"0": [0.0, 0.2], "1": [0.6]}
        assert doc["mean"]["0"] == pytest.approx(0.1)
        assert doc["last"] == {"0": 0.2, "1": 0.6}
        import json

        json.dumps(doc)  # JSON-serializable by construction
