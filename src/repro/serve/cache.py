"""LRU embedding cache with a staleness bound.

The serving path recomputes nothing it already knows: a classified
vertex's logits + embedding rows go into this cache and later requests
for the same vertex are answered without touching the batcher.  Two
limits keep it honest:

* **capacity** — least-recently-used entries evict first (an
  ``OrderedDict`` move-to-end on every hit);
* **max_age_s** — entries older than the staleness bound are treated as
  misses and dropped, so a model refresh (or, later, a dynamic-graph
  update) propagates within the bound instead of never.  ``None``
  disables the bound (a static graph + frozen model cannot go stale).

``invalidate`` bumps a generation counter, so a row computed before it
(read ``generation`` first, pass it to ``put``) never lands after it.

Every outcome is observable: ``serve.cache.hits`` / ``.misses`` /
``.stale`` / ``.stale_puts`` / ``.evictions`` counters and the
``serve.cache.size`` gauge land in whatever registry is active, and
:meth:`stats` mirrors the same numbers as plain ints for
``/stats.json`` even when telemetry is off.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple


class EmbeddingCache:
    """Thread-safe LRU of per-vertex inference results."""

    def __init__(self, capacity: int = 4096, max_age_s: Optional[float] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_age_s is not None and max_age_s <= 0:
            raise ValueError(f"max_age_s must be positive, got {max_age_s}")
        self.capacity = capacity
        self.max_age_s = max_age_s
        self._lock = threading.Lock()
        self._entries: "OrderedDict[int, Tuple[Any, float]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.stale_puts = 0
        self.evictions = 0
        self.generation = 0

    # ------------------------------------------------------------------
    def _registry(self):
        from ..obs import get_metrics

        return get_metrics()

    def get(self, vertex: int, now: Optional[float] = None) -> Optional[Any]:
        """The cached value, or ``None`` on a miss / stale entry."""
        now = time.monotonic() if now is None else now
        registry = self._registry()
        with self._lock:
            entry = self._entries.get(vertex)
            if entry is None:
                self.misses += 1
                registry.inc("serve.cache.misses")
                return None
            value, stored = entry
            if self.max_age_s is not None and now - stored > self.max_age_s:
                del self._entries[vertex]
                self.stale += 1
                self.misses += 1
                size = len(self._entries)
                registry.inc("serve.cache.stale")
                registry.inc("serve.cache.misses")
                registry.set_gauge("serve.cache.size", float(size))
                return None
            self._entries.move_to_end(vertex)
            self.hits += 1
            registry.inc("serve.cache.hits")
            return value

    def put(self, vertex: int, value: Any, now: Optional[float] = None,
            generation: Optional[int] = None) -> None:
        """Store ``value``, unless an invalidate overtook ``generation``."""
        now = time.monotonic() if now is None else now
        registry = self._registry()
        with self._lock:
            if generation is not None and generation != self.generation:
                self.stale_puts += 1
                registry.inc("serve.cache.stale_puts")
                return
            if vertex in self._entries:
                self._entries.move_to_end(vertex)
            self._entries[vertex] = (value, now)
            evicted = 0
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            size = len(self._entries)
        if evicted:
            registry.inc("serve.cache.evictions", evicted)
        registry.set_gauge("serve.cache.size", float(size))

    def invalidate(self, vertex: Optional[int] = None) -> int:
        """Drop one vertex's entry (or everything), and every write in
        flight; returns drop count."""
        with self._lock:
            self.generation += 1
            if vertex is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                dropped = 1 if self._entries.pop(vertex, None) is not None else 0
            size = len(self._entries)
        self._registry().set_gauge("serve.cache.size", float(size))
        return dropped

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            size = len(self._entries)
        return {
            "size": size,
            "capacity": self.capacity,
            "max_age_s": self.max_age_s,
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "stale_puts": self.stale_puts,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
