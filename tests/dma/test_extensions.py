"""Unit tests for the rejected-design models (Section 5 / Section 7.2.1)."""

import pytest

from repro.dma.extensions import (
    aggressive_prefetch_estimate, compressed_dma_estimate,
)


class TestCompressedDma:
    def test_dense_features_buy_nothing(self):
        estimate = compressed_dma_estimate(sparsity=0.0)
        assert estimate.speedup_over_plain_dma < 1.0  # mask + expand cost

    def test_high_sparsity_buys_bandwidth(self):
        estimate = compressed_dma_estimate(sparsity=0.9)
        assert estimate.speedup_over_plain_dma > 1.5

    def test_monotone_in_sparsity(self):
        speeds = [
            compressed_dma_estimate(s).speedup_over_plain_dma
            for s in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(b > a for a, b in zip(speeds, speeds[1:]))

    def test_papers_conclusion_holds_at_moderate_sparsity(self):
        """The paper rejects the hardware: at the 50% sparsity of the main
        evaluation, the gain does not clear the area bar."""
        estimate = compressed_dma_estimate(sparsity=0.5)
        assert not estimate.worthwhile

    def test_extreme_sparsity_flips_the_tradeoff(self):
        """...but a >=90%-sparse regime (deep-layer dropout) would justify
        it — the quantified version of 'the use case does not justify'."""
        estimate = compressed_dma_estimate(sparsity=0.95)
        assert estimate.worthwhile

    def test_area_ratio_over_one(self):
        assert compressed_dma_estimate(0.5).area_ratio > 1.0


class TestAggressivePrefetch:
    def test_full_buffers_no_gain(self):
        """Table 4: papers/twitter keep fill buffers 100% full — deeper
        prefetch cannot help."""
        estimate = aggressive_prefetch_estimate(1.0)
        assert estimate.speedup_over_default == pytest.approx(1.0)

    def test_idle_buffers_yield_speedup(self):
        """products after c-locality sits at ~31% occupancy — headroom."""
        estimate = aggressive_prefetch_estimate(0.31)
        assert estimate.speedup_over_default > 1.05

    def test_bounded_by_interface(self):
        estimate = aggressive_prefetch_estimate(0.0)
        assert estimate.speedup_over_default <= 1.0 / 0.88 + 1e-9

    def test_invalid_occupancy(self):
        with pytest.raises(ValueError):
            aggressive_prefetch_estimate(1.5)
