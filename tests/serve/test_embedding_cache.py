"""Unit tests for the LRU embedding cache and its staleness bound."""

import sys
import threading

import pytest

from repro.serve import EmbeddingCache


class TestLRU:
    def test_miss_then_hit(self):
        cache = EmbeddingCache(capacity=4)
        assert cache.get(1) is None
        cache.put(1, "row1")
        assert cache.get(1) == "row1"
        assert cache.hits == 1 and cache.misses == 1

    def test_capacity_evicts_least_recently_used(self):
        cache = EmbeddingCache(capacity=2)
        cache.put(1, "a")
        cache.put(2, "b")
        cache.get(1)  # 1 becomes most-recent
        cache.put(3, "c")  # evicts 2
        assert cache.get(2) is None
        assert cache.get(1) == "a"
        assert cache.get(3) == "c"
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_put_same_vertex_replaces_without_evicting(self):
        cache = EmbeddingCache(capacity=2)
        cache.put(1, "a")
        cache.put(1, "a2")
        assert len(cache) == 1
        assert cache.get(1) == "a2"
        assert cache.evictions == 0

    def test_invalidate_one_and_all(self):
        cache = EmbeddingCache(capacity=8)
        for v in range(4):
            cache.put(v, v)
        assert cache.invalidate(2) == 1
        assert cache.invalidate(2) == 0
        assert cache.get(2) is None
        assert cache.invalidate() == 3
        assert len(cache) == 0

    def test_put_overtaken_by_invalidate_is_dropped(self):
        cache = EmbeddingCache(capacity=4)
        generation = cache.generation  # read before computing the row
        cache.invalidate(7)  # any invalidate overtakes every write
        cache.put(1, "old", generation=generation)
        assert cache.get(1) is None
        assert cache.stale_puts == 1 and cache.stats()["stale_puts"] == 1
        cache.put(1, "new", generation=cache.generation)
        assert cache.get(1) == "new"

    def test_no_pre_invalidate_write_survives_racing_invalidates(self):
        """Writers store the generation they read, each vertex once; an
        invalidator clears concurrently.  A write that landed after an
        invalidate overtook it would survive with an older generation."""
        cache = EmbeddingCache(capacity=8000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def writer(offset):
            for vertex in range(offset, offset + 2000):
                generation = cache.generation
                cache.put(vertex, generation, generation=generation)

        def invalidator():
            for _ in range(500):
                cache.invalidate()

        threads = [threading.Thread(target=writer, args=(2000 * k,)) for k in range(4)]
        threads.append(threading.Thread(target=invalidator))
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        final = cache.generation
        assert final == 500
        assert all(cache.get(v) in (None, final) for v in range(8000))

    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingCache(capacity=0)
        with pytest.raises(ValueError):
            EmbeddingCache(max_age_s=0.0)


class TestStaleness:
    def test_fresh_entry_within_bound(self):
        cache = EmbeddingCache(capacity=4, max_age_s=10.0)
        cache.put(1, "row", now=100.0)
        assert cache.get(1, now=105.0) == "row"
        assert cache.stale == 0

    def test_stale_entry_is_a_miss_and_dropped(self):
        cache = EmbeddingCache(capacity=4, max_age_s=10.0)
        cache.put(1, "row", now=100.0)
        assert cache.get(1, now=111.0) is None
        assert cache.stale == 1
        assert cache.misses == 1
        assert len(cache) == 0  # dropped, a re-put starts a fresh clock

    def test_no_bound_never_stales(self):
        cache = EmbeddingCache(capacity=4, max_age_s=None)
        cache.put(1, "row", now=0.0)
        assert cache.get(1, now=1e9) == "row"

    def test_hit_rate_and_stats(self):
        cache = EmbeddingCache(capacity=4)
        cache.put(1, "a")
        cache.get(1)
        cache.get(2)
        assert cache.hit_rate == pytest.approx(0.5)
        stats = cache.stats()
        assert stats["size"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
