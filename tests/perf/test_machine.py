"""Unit tests for the machine model."""

import pytest

from repro.perf import DmaConfig, MachineConfig, cascade_lake_12, cascade_lake_28


class TestMachineConfig:
    def test_paper_platform_constants(self):
        machine = cascade_lake_28()
        assert (machine.cores, machine.frequency_hz, machine.dram_bandwidth,
                machine.l2_bytes) == (28, 2.7e9, 140.8e9, 1024 * 1024)

    def test_peak_flops(self):
        machine = cascade_lake_28()
        assert machine.peak_flops == pytest.approx(28 * 2.7e9 * 64)

    def test_feature_cache_is_l2_plus_l3(self):
        machine = cascade_lake_28()
        assert machine.feature_cache_bytes == machine.l2_total_bytes + machine.l3_total_bytes

    def test_scaled_cache_preserves_ratio(self):
        machine = cascade_lake_28()
        scaled = machine.scaled_cache_bytes(1e6, 1e9)
        assert scaled == pytest.approx(machine.feature_cache_bytes / 1000)

    def test_scaled_cache_rejects_bad_paper_bytes(self):
        with pytest.raises(ValueError):
            cascade_lake_28().scaled_cache_bytes(1.0, 0.0)

    def test_gemm_time_small_slower(self):
        machine = cascade_lake_28()
        assert machine.gemm_time(1e9, small=True) > machine.gemm_time(1e9)

    def test_stream_time(self):
        machine = cascade_lake_28()
        one_second_bytes = machine.dram_bandwidth * machine.stream_bw_efficiency
        assert machine.stream_time(one_second_bytes) == pytest.approx(1.0)

    def test_twelve_core_host(self):
        assert cascade_lake_12().cores == 12


class TestDmaConfig:
    def test_paper_storage_total(self):
        """Section 6: the engine's storage totals 4.5KB."""
        dma = DmaConfig()
        storage = (dma.output_buffer_bytes + dma.input_buffer_bytes
                   + dma.factor_buffer_bytes + dma.index_buffer_bytes)
        assert storage == 2048 + 2048 + 128 + 128

    def test_output_buffer_elements(self):
        assert DmaConfig().output_buffer_elements == 512

    def test_tracking_table_default(self):
        assert DmaConfig().tracking_table_entries == 32

    def test_vector_unit_width(self):
        assert DmaConfig().vector_lanes == 4
