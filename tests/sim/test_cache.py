"""Unit + property tests for the set-associative LRU cache."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SetAssociativeCache


class TestBasics:
    def test_first_access_misses(self):
        cache = SetAssociativeCache(1024, 2)
        assert not cache.access(0)
        assert cache.stats.misses == 1

    def test_second_access_hits(self):
        cache = SetAssociativeCache(1024, 2)
        cache.access(0)
        assert cache.access(0)
        assert cache.stats.hits == 1

    def test_same_line_different_bytes(self):
        cache = SetAssociativeCache(1024, 2)
        cache.access(0)
        assert cache.access(63)  # same 64B line
        assert not cache.access(64)  # next line

    def test_miss_rate(self):
        cache = SetAssociativeCache(1024, 2)
        cache.access(0)
        cache.access(0)
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 2)
        with pytest.raises(ValueError):
            SetAssociativeCache(64, 4)  # fewer lines than ways


class TestLRU:
    def test_eviction_order(self):
        # 2 sets, 2 ways: lines 0, 2, 4 map to set 0.
        cache = SetAssociativeCache(4 * 64, 2)
        cache.access(0 * 64)
        cache.access(2 * 64)
        cache.access(4 * 64)  # evicts line 0 (LRU)
        assert not cache.access(0 * 64)
        assert cache.stats.evictions >= 1

    def test_touch_refreshes_lru(self):
        cache = SetAssociativeCache(4 * 64, 2)
        cache.access(0 * 64)
        cache.access(2 * 64)
        cache.access(0 * 64)  # refresh 0, so 2 is now LRU
        cache.access(4 * 64)  # evicts 2
        assert cache.access(0 * 64)
        assert not cache.access(2 * 64)


class TestInstall:
    def test_install_makes_subsequent_access_hit(self):
        cache = SetAssociativeCache(1024, 2)
        cache.install(128)
        assert cache.access(128)
        assert cache.stats.installs == 1

    def test_install_does_not_count_as_demand(self):
        cache = SetAssociativeCache(1024, 2)
        cache.install(128)
        assert cache.stats.accesses == 0

    def test_contains_peeks_without_side_effects(self):
        cache = SetAssociativeCache(1024, 2)
        cache.install(0)
        assert cache.contains(0)
        assert not cache.contains(4096)
        assert cache.stats.accesses == 0

    def test_invalidate(self):
        cache = SetAssociativeCache(1024, 2)
        cache.install(0)
        cache.invalidate(0)
        assert not cache.contains(0)

    def test_reset_stats(self):
        cache = SetAssociativeCache(1024, 2)
        cache.access(0)
        cache.reset_stats()
        assert cache.stats.accesses == 0


class _ReferenceLRU:
    """Fully-associative reference used for single-set equivalence."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.lines = OrderedDict()

    def access(self, line):
        if line in self.lines:
            self.lines.move_to_end(line)
            return True
        if len(self.lines) >= self.capacity:
            self.lines.popitem(last=False)
        self.lines[line] = True
        return False


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=200))
def test_single_set_matches_reference_lru(addresses):
    """With one set, the cache is plain LRU: compare against a reference."""
    ways = 4
    cache = SetAssociativeCache(ways * 64, ways)  # one set
    assert cache.num_sets == 1
    reference = _ReferenceLRU(ways)
    for line in addresses:
        assert cache.access(line * 64) == reference.access(line)
