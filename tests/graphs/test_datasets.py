"""Unit tests for the Table-3 dataset twins."""

import numpy as np
import pytest

from repro.graphs import (
    DATASET_NAMES,
    SPECS,
    input_feature_size,
    load_dataset,
    synthetic_features,
)
from repro.graphs.stats import skew
from repro.tensors import sparsity


class TestLoadDataset:
    def test_all_four_exist(self):
        assert set(DATASET_NAMES) == {"products", "wikipedia", "papers", "twitter"}

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_twin_loads(self, name):
        graph = load_dataset(name, scale=0.1)
        assert graph.num_vertices >= 128
        assert graph.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_dataset("reddit")

    @pytest.mark.parametrize("scale", [0, -1, 0.0, float("nan")])
    def test_non_positive_scale_raises(self, scale):
        """No silent 128-vertex twin for a scale that means nothing."""
        with pytest.raises(ValueError, match="scale"):
            load_dataset("products", scale=scale)

    def test_scale_changes_size(self):
        small = load_dataset("products", scale=0.1)
        large = load_dataset("products", scale=0.3)
        assert large.num_vertices > small.num_vertices

    def test_deterministic(self):
        a = load_dataset("wikipedia", scale=0.1, seed=1)
        b = load_dataset("wikipedia", scale=0.1, seed=1)
        np.testing.assert_array_equal(a.indices, b.indices)

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_mean_degree_near_paper(self, name):
        """Twins track Table 3's mean degree within a 0.6-1.4x band."""
        graph = load_dataset(name, scale=0.5)
        achieved = graph.num_edges / graph.num_vertices
        target = SPECS[name].mean_degree
        assert 0.6 * target <= achieved <= 1.4 * target

    def test_products_skew_exceeds_wikipedia(self):
        products = load_dataset("products", scale=0.25)
        wikipedia = load_dataset("wikipedia", scale=0.25)
        assert skew(products) > 0.4
        assert skew(wikipedia) > 0.0


class TestFeatureSizes:
    def test_input_feature_size_per_dataset(self):
        assert input_feature_size("products", 1.0) == 100
        assert input_feature_size("wikipedia", 1.0) == 128
        assert input_feature_size("papers", 1.0) == 256
        assert input_feature_size("twitter", 1.0) == 256

    def test_floor(self):
        assert input_feature_size("products", 0.01) >= 16


class TestSyntheticFeatures:
    def test_shape_and_dtype(self, small_products):
        h = synthetic_features(small_products, 32)
        assert h.shape == (small_products.num_vertices, 32)
        assert h.dtype == np.float32

    def test_injected_sparsity(self, small_products):
        h = synthetic_features(small_products, 64, sparsity=0.5, seed=0)
        assert 0.45 <= sparsity(h) <= 0.55

    def test_zero_sparsity_dense(self, small_products):
        h = synthetic_features(small_products, 16, sparsity=0.0)
        assert sparsity(h) < 0.01

    def test_deterministic(self, small_products):
        a = synthetic_features(small_products, 8, seed=5)
        b = synthetic_features(small_products, 8, seed=5)
        np.testing.assert_array_equal(a, b)


class TestMetadata:

    def test_pre_localized_flags(self):
        assert not SPECS["products"].pre_localized
        assert SPECS["wikipedia"].pre_localized
        assert not SPECS["papers"].pre_localized
        assert SPECS["twitter"].pre_localized
