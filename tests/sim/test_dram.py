"""Unit tests for the DRAM model and the batch timing law."""

import pytest

from repro.sim import DramModel


@pytest.fixture
def dram():
    return DramModel()


class TestDramModel:
    def test_service_time_matches_bandwidth(self, dram):
        # 64B at 140.8 GB/s at 2.7 GHz -> about 1.23 cycles per line.
        assert dram.service_cycles_per_line == pytest.approx(
            64 / 140.8e9 * 2.7e9, rel=1e-9
        )

    def test_requests_serialize(self, dram):
        first = dram.request(0.0)
        second = dram.request(0.0)
        assert second > first

    def test_latency_floor(self, dram):
        done = dram.request(0.0)
        assert done >= dram.base_latency_cycles

    def test_stats_accumulate(self, dram):
        dram.request(0.0)
        dram.request(0.0)
        assert dram.stats.lines_served == 2
        assert dram.stats.bytes_served == 128

    def test_reset(self, dram):
        dram.request(0.0)
        dram.reset()
        assert dram.stats.lines_served == 0
        assert dram.busy_until == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DramModel(bandwidth_bytes_per_s=0)


class TestLoadedLatency:
    def test_unloaded_is_base(self, dram):
        assert dram.loaded_latency(0.0) == pytest.approx(
            dram.base_latency_cycles, rel=0.01
        )

    def test_monotone_in_utilization(self, dram):
        lats = [dram.loaded_latency(u) for u in (0.0, 0.5, 0.9, 0.99)]
        assert all(b >= a for a, b in zip(lats, lats[1:]))

    def test_capped_at_4x(self, dram):
        assert dram.loaded_latency(0.999) <= 4.0 * dram.base_latency_cycles
