"""Unit tests for the DRAM traffic accounting."""

import pytest

from repro.perf import (
    LayerShape, aggregation_traffic, backward_traffic, decompress_elements,
    update_traffic,
)
from repro.tensors import traffic_ratio

SHAPE = LayerShape(num_vertices=1000, num_edges=20000, f_in=128, f_out=64)


class TestLayerShape:
    def test_gathers_include_self(self):
        assert SHAPE.num_gathers == 21000

    def test_vector_bytes(self):
        assert SHAPE.in_vector_bytes == 512


class TestAggregationTraffic:
    def test_zero_hit_rate_reads_every_gather(self):
        traffic = aggregation_traffic(SHAPE, gather_hit_rate=0.0)
        assert traffic.notes["feature_read"] == 21000 * 512

    def test_full_hit_rate_reads_nothing(self):
        traffic = aggregation_traffic(SHAPE, gather_hit_rate=1.0)
        assert traffic.notes["feature_read"] == 0.0

    def test_hit_rate_scales_linearly(self):
        half = aggregation_traffic(SHAPE, 0.5).notes["feature_read"]
        none = aggregation_traffic(SHAPE, 0.0).notes["feature_read"]
        assert half == pytest.approx(none / 2)

    def test_a_write_toggle(self):
        with_write = aggregation_traffic(SHAPE, 0.5, write_a=True)
        without = aggregation_traffic(SHAPE, 0.5, write_a=False)
        assert with_write.dram_write - without.dram_write == 1000 * 512

    def test_compression_scales_feature_reads_only(self):
        plain = aggregation_traffic(SHAPE, 0.0, feature_sparsity=0.5)
        packed = aggregation_traffic(SHAPE, 0.0, feature_sparsity=0.5, compressed=True)
        ratio = packed.notes["feature_read"] / plain.notes["feature_read"]
        assert ratio == pytest.approx(traffic_ratio(0.5))
        assert packed.notes["index_read"] == plain.notes["index_read"]

    def test_invalid_hit_rate(self):
        with pytest.raises(ValueError):
            aggregation_traffic(SHAPE, 1.5)

    def test_flops_count(self):
        traffic = aggregation_traffic(SHAPE, 0.0)
        assert traffic.flops == 2.0 * 21000 * 128


class TestUpdateTraffic:
    def test_unfused_reads_a(self):
        traffic = update_traffic(SHAPE, fused=False)
        assert traffic.notes["a_read"] == 1000 * 512

    def test_fused_skips_a_read(self):
        traffic = update_traffic(SHAPE, fused=True)
        assert traffic.notes["a_read"] == 0.0

    def test_output_write_compressible(self):
        dense = update_traffic(SHAPE, feature_sparsity=0.5)
        packed = update_traffic(SHAPE, feature_sparsity=0.5, compressed=True)
        assert packed.notes["h_out_write"] == pytest.approx(
            dense.notes["h_out_write"] * traffic_ratio(0.5))

    def test_gemm_flops(self):
        traffic = update_traffic(SHAPE)
        assert traffic.flops == 2.0 * 1000 * 128 * 64


class TestBackwardTraffic:
    def test_has_two_gemms_of_flops(self):
        traffic = backward_traffic(SHAPE, 0.0)
        assert traffic.flops >= 2.0 * (2.0 * 1000 * 128 * 64)

    def test_gather_term_scales_with_hit_rate(self):
        none = backward_traffic(SHAPE, 0.0).notes["grad_gather"]
        half = backward_traffic(SHAPE, 0.5).notes["grad_gather"]
        assert half == pytest.approx(none / 2)

    def test_compression_shrinks_gradient_streams(self):
        dense = backward_traffic(SHAPE, 0.0, feature_sparsity=0.6)
        packed = backward_traffic(SHAPE, 0.0, feature_sparsity=0.6, compressed=True)
        assert packed.dram_total < dense.dram_total
        # grad_a stays dense (a reduction output).
        assert packed.notes["grad_a_write"] == dense.notes["grad_a_write"]


class TestPhaseTrafficOps:
    def test_merge_adds_components(self):
        a = aggregation_traffic(SHAPE, 0.5)
        b = update_traffic(SHAPE)
        merged = a.merged(b)
        assert merged.dram_total == pytest.approx(a.dram_total + b.dram_total)
        assert merged.flops == pytest.approx(a.flops + b.flops)

    def test_scaled(self):
        a = aggregation_traffic(SHAPE, 0.5)
        assert a.scaled(2.0).dram_read == pytest.approx(2 * a.dram_read)


class TestDecompressElements:
    def test_disabled(self):
        assert decompress_elements(SHAPE, compressed=False) == 0.0

    def test_counts_all_lanes(self):
        """Expansion touches every lane regardless of sparsity (the reason
        compression loses at 10% sparsity, Figure 14)."""
        assert decompress_elements(SHAPE, compressed=True) == 21000 * 128
