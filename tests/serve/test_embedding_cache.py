"""Unit tests for the answer table: fresh flags, refills, invalidation."""

import sys
import threading

import numpy as np
import pytest

from repro.serve import EmbeddingCache


def table(vertices=8, classes=3, width=2):
    logits = np.arange(vertices * classes, dtype=np.float32).reshape(vertices, classes)
    return EmbeddingCache(logits, width)


def refill(cache, vertex, value, generation=None):
    """Write ``value`` into every column of both of the vertex's rows."""
    classes, width = cache.logits.shape[1], cache.embeddings.shape[1]
    cache.put(
        np.array([vertex]), np.full((1, classes), value, np.float32),
        np.full((1, width), value, np.float32), generation=generation,
    )


class TestLRU:
    def test_miss_then_hit(self):
        cache = table()
        assert cache.get(1, "embedding") is None  # never computed
        refill(cache, 1, 5.0)
        assert cache.get(1, "embedding").tolist() == [5.0, 5.0]
        assert cache.hits == 1 and cache.misses == 1

    def test_logits_are_fresh_from_construction(self):
        cache = table()
        assert cache.get(2).tolist() == [6.0, 7.0, 8.0]
        assert (len(cache), cache.hits, cache.misses) == (8, 1, 0)

    def test_get_returns_a_copy(self):
        """A refill landing while the caller renders must not change
        the row it holds."""
        cache = table()
        row = cache.get(1)
        refill(cache, 1, -1.0)
        assert row.tolist() == [3.0, 4.0, 5.0]
        assert cache.get(1).tolist() == [-1.0, -1.0, -1.0]

    def test_put_same_vertex_replaces_without_evicting(self):
        cache = table()
        refill(cache, 1, 1.0)
        refill(cache, 1, 2.0)
        assert (len(cache), cache.get(1).tolist()) == (8, [2.0, 2.0, 2.0])
        assert cache.stats()["evictions"] == 0

    def test_invalidate_one_and_all(self):
        cache = table(vertices=4)
        assert (cache.invalidate(2), cache.invalidate(2)) == (1, 0)
        assert cache.get(2) is None
        assert (cache.invalidate(), len(cache)) == (3, 0)
        refill(cache, 2, 1.0)  # a refill makes both rows fresh again
        assert cache.get(2) is not None and cache.get(2, "embedding") is not None
        assert len(cache) == 1

    def test_put_overtaken_by_invalidate_is_dropped(self):
        cache = table()
        cache.invalidate(1)
        generation = cache.generation  # read before computing the row
        cache.invalidate(7)  # any invalidate overtakes every write
        refill(cache, 1, 9.0, generation=generation)
        assert cache.get(1) is None
        assert cache.stale_puts == 1 and cache.stats()["stale_puts"] == 1
        refill(cache, 1, 9.0, generation=cache.generation)
        assert cache.get(1).tolist() == [9.0, 9.0, 9.0]

    def test_no_pre_invalidate_write_survives_racing_invalidates(self):
        """Writers store the generation they read, each vertex once; an
        invalidator clears concurrently.  A write that landed after an
        invalidate overtook it would survive with an older generation."""
        cache = table(vertices=8000, classes=1, width=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def writer(offset):
            for vertex in range(offset, offset + 2000):
                generation = cache.generation
                refill(cache, vertex, generation, generation=generation)

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
        rows = [cache.get(v) for v in range(8000)]
        assert all(row is None or row[0] == final for row in rows)

    def test_validation(self):
        for logits, width in ((np.zeros(4, np.float32), 2),
                              (np.zeros((4, 3), np.float32), 0)):
            with pytest.raises(ValueError):
                EmbeddingCache(logits, width)

    def test_close_releases_both_arrays(self):
        cache = table()
        cache.close()
        assert cache.logits is None and cache.embeddings is None
        assert cache.get(1) is None and len(cache) == 0
        cache.put(np.array([1]), np.zeros((1, 3)), np.zeros((1, 2)))
        assert cache.stale_puts == 1  # lands nowhere


class TestStaleness:
    def test_hit_rate_and_stats(self):
        cache = table()
        cache.get(1)
        cache.get(2, "embedding")
        assert cache.hit_rate == pytest.approx(0.5)
        stats = cache.stats()
        assert [stats[k] for k in ("size", "hits", "misses", "evictions")] == [8, 1, 1, 0]
