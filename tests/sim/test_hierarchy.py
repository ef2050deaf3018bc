"""Unit tests for the memory hierarchy model."""

import pytest

from repro.sim import L1_LATENCY, L2_LATENCY, L3_LATENCY, MemoryHierarchy


@pytest.fixture
def hierarchy():
    return MemoryHierarchy(cache_scale=0.05)


class TestLevels:
    def test_cold_access_reaches_dram(self, hierarchy):
        assert hierarchy.access(0, 0x1000).level == "DRAM"

    def test_warm_access_hits_l1(self, hierarchy):
        hierarchy.access(0, 0x1000)
        result = hierarchy.access(0, 0x1000)
        assert (result.level, result.latency_cycles) == ("L1", L1_LATENCY)

    def test_other_core_misses_private_hits_l3(self, hierarchy):
        hierarchy.access(0, 0x1000)  # core 0 warms L3 too
        result = hierarchy.access(1, 0x1000)
        assert (result.level, result.latency_cycles) == ("L3", L3_LATENCY)

    def test_core_out_of_range(self, hierarchy):
        with pytest.raises(IndexError):
            hierarchy.access(99, 0)

    def test_invalid_cache_scale(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(cache_scale=0.0)


class TestBypassPath:
    def test_bypass_skips_private_caches(self, hierarchy):
        hierarchy.access(0, 0x2000, bypass_private=True)
        assert (hierarchy.l1[0].stats.accesses, hierarchy.l2[0].stats.accesses,
                hierarchy.l3.stats.accesses) == (0, 0, 1)

    def test_bypass_still_benefits_from_l3(self, hierarchy):
        hierarchy.access(0, 0x2000, bypass_private=True)
        assert hierarchy.access(0, 0x2000, bypass_private=True).level == "L3"

    def test_bypass_does_not_pollute_private(self, hierarchy):
        hierarchy.access(0, 0x3000, bypass_private=True)
        # A later demand access from core 0 misses L1/L2 (no pollution).
        assert hierarchy.access(0, 0x3000).level == "L3"


class TestDmaInstall:
    def test_installed_line_hits_l2(self, hierarchy):
        hierarchy.dma_install_output(2, 0x4000)
        result = hierarchy.access(2, 0x4000)
        assert (result.level, result.latency_cycles) == ("L2", L2_LATENCY)

    def test_install_counts(self, hierarchy):
        hierarchy.dma_install_output(0, 0x4000)
        assert hierarchy.l2[0].stats.installs == 1


class TestStats:
    def test_l2_miss_rate(self, hierarchy):
        hierarchy.access(0, 0)  # L2 miss
        hierarchy.access(0, 0)  # L1 hit (L2 untouched)
        stats = hierarchy.l2[0].stats
        assert (stats.accesses, stats.misses) == (1, 1)

    def test_reset(self, hierarchy):
        hierarchy.access(0, 0)
        hierarchy.reset_stats()
        assert (hierarchy.l1_accesses(), hierarchy.dram.stats.lines_served) == (0, 0)


class TestNocIntegration:
    """No network-on-chip model: an L3 hit costs the same from any core."""

    def test_default_keeps_flat_latency(self):
        hierarchy = MemoryHierarchy(cache_scale=0.05)
        hierarchy.access(0, 0x2000)
        for core in range(1, hierarchy.machine.cores):
            result = hierarchy.access(core, 0x2000, bypass_private=True)
            assert (result.level, result.latency_cycles) == ("L3", L3_LATENCY)
