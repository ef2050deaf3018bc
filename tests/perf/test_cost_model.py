"""Integration tests for the analytical cost model: paper-shape checks."""

import pytest

from repro.graphs import load_dataset
from repro.perf import CostModel, VARIANTS


@pytest.fixture(scope="module")
def products_model():
    return CostModel(load_dataset("products", scale=0.25, seed=0))


@pytest.fixture(scope="module")
def wikipedia_model():
    return CostModel(load_dataset("wikipedia", scale=0.25, seed=0))


F_IN, F_HID = 100, 128


class TestVariantRegistry:
    def test_all_paper_variants_present(self):
        for name in ("distgnn", "mkl", "basic", "fusion", "compression",
                     "combined", "c-locality"):
            assert name in VARIANTS

    def test_flags(self):
        assert VARIANTS["fusion"].fused
        assert not VARIANTS["fusion"].compressed
        assert VARIANTS["combined"].fused and VARIANTS["combined"].compressed
        assert VARIANTS["c-locality"].order == "locality"


def test_fused_inference_time_value(products_model):
    """The fusion overlap residual at one fixed input: the orderings
    below hold across a range of it, so the number is pinned here."""
    total = products_model.inference_time("fusion", F_IN, F_HID).total
    assert total == pytest.approx(2.4132673e-4, rel=1e-6)


class TestSpeedupOrdering:
    """The qualitative ordering of Figure 11 must hold on every twin."""

    @pytest.mark.parametrize("training", [False, True])
    def test_basic_beats_distgnn(self, products_model, training):
        assert products_model.speedup("basic", F_IN, F_HID, training=training) > 1.0

    @pytest.mark.parametrize("training", [False, True])
    def test_mkl_slightly_slower_than_distgnn(self, products_model, training):
        s = products_model.speedup("mkl", F_IN, F_HID, training=training)
        assert 0.85 < s < 1.0

    def test_fusion_beats_basic(self, products_model):
        fusion = products_model.speedup("fusion", F_IN, F_HID)
        basic = products_model.speedup("basic", F_IN, F_HID)
        assert fusion > basic

    def test_combined_beats_both_parts(self, products_model):
        combined = products_model.speedup("combined", F_IN, F_HID, sparsity=0.5)
        fusion = products_model.speedup("fusion", F_IN, F_HID, sparsity=0.5)
        compression = products_model.speedup("compression", F_IN, F_HID, sparsity=0.5)
        assert combined > fusion
        assert combined > compression

    def test_locality_helps_training_on_products(self, products_model):
        loc = products_model.speedup("c-locality", F_IN, F_HID, training=True,
                                     sparsity=0.5)
        combined = products_model.speedup("combined", F_IN, F_HID, training=True,
                                          sparsity=0.5)
        assert loc > combined * 1.2  # products is the big locality winner

    def test_fusion_helps_training_less_than_inference(self, products_model):
        """Fusion cannot drop the a write in training (Section 7.1.1)."""
        inf = products_model.speedup("fusion", F_IN, F_HID, training=False)
        train = products_model.speedup("fusion", F_IN, F_HID, training=True)
        assert train < inf


class TestCompressionCrossover:
    def test_loses_at_low_sparsity(self, products_model):
        s = products_model.speedup("compression", F_IN, F_HID, sparsity=0.1,
                                   baseline="basic")
        assert s < 1.0

    def test_wins_at_high_sparsity(self, products_model):
        s = products_model.speedup("compression", F_IN, F_HID, sparsity=0.9,
                                   baseline="basic")
        assert s > 1.5

    def test_monotone_in_sparsity(self, products_model):
        speeds = [
            products_model.speedup("compression", F_IN, F_HID, sparsity=s,
                                   baseline="basic")
            for s in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(b > a for a, b in zip(speeds, speeds[1:]))


class TestHitRates:
    def test_products_locality_order_wins(self, products_model):
        assert products_model.hit_rate("locality") > products_model.hit_rate("natural")

    def test_wikipedia_pre_localized(self, wikipedia_model):
        """wikipedia's source ordering already embeds locality (Fig. 15)."""
        natural = wikipedia_model.hit_rate("natural")
        randomized = wikipedia_model.hit_rate("randomized")
        assert natural > randomized * 2

    def test_products_natural_is_random_like(self, products_model):
        natural = products_model.hit_rate("natural")
        randomized = products_model.hit_rate("randomized")
        assert natural == pytest.approx(randomized, abs=0.05)


class TestWorkloadAccounting:
    def test_training_heavier_than_inference(self, products_model):
        inf = products_model.inference_time("distgnn", F_IN, F_HID)
        train = products_model.training_epoch_time("distgnn", F_IN, F_HID)
        assert train.total > inf.total

    def test_layers_counted(self, products_model):
        """The paper's evaluated network has two layers."""
        times = products_model.inference_time("basic", F_IN, F_HID)
        assert len(times.layer_times) == 2

    def test_dram_bytes_positive(self, products_model):
        times = products_model.training_epoch_time("combined", F_IN, F_HID,
                                                   sparsity=0.5)
        assert times.dram_bytes > 0
        assert times.flops > 0

    def test_fused_inference_less_dram_than_basic(self, products_model):
        fused = products_model.inference_time("fusion", F_IN, F_HID)
        basic = products_model.inference_time("basic", F_IN, F_HID)
        assert fused.dram_bytes < basic.dram_bytes
