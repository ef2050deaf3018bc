"""The answer table: every vertex's logits, computed once at start-up.

With a static graph and static weights a classify query is a lookup in
the ``V × C`` logits of one full-graph forward.  Two arrays, one fresh
flag per row in each:

* ``logits`` — dense, every row fresh after construction;
* ``embeddings`` — the final layer's input, ``V × H`` over an anonymous
  ``mmap``: only a refill writes a row, so only asked-for pages become
  resident (``np.empty`` may instead reuse heap memory that earlier work
  already made resident).

A row that is not fresh is a miss, which the service refills through
the batcher.  ``invalidate`` clears fresh flags (after a weight update,
say) and bumps a generation counter, so a refill computed before it
(read ``generation`` first, pass it to ``put``) never lands after it.

``serve.cache.hits`` / ``.misses`` / ``.stale_puts`` counters and the
``serve.cache.size`` gauge (fresh logits rows) land in whatever registry
is active; :meth:`stats` mirrors them for ``/stats.json``.  Nothing is
evicted: ``evictions`` stays, always 0, for readers that sum it.
"""

from __future__ import annotations

import mmap
import threading
from typing import Any, Dict, Optional

import numpy as np


class EmbeddingCache:
    """Thread-safe per-vertex answer table with fresh flags."""

    def __init__(self, logits: np.ndarray, embedding_width: int) -> None:
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
        if embedding_width < 1:
            raise ValueError(
                f"embedding_width must be >= 1, got {embedding_width}"
            )
        num_vertices = logits.shape[0]
        count = num_vertices * embedding_width
        pages = mmap.mmap(-1, max(1, count * logits.itemsize))
        self.logits: Optional[np.ndarray] = logits
        self.embeddings: Optional[np.ndarray] = np.frombuffer(
            pages, logits.dtype, count
        ).reshape(num_vertices, embedding_width)
        self._fresh = {
            "classify": np.ones(num_vertices, dtype=bool),
            "embedding": np.zeros(num_vertices, dtype=bool),
        }
        self._size = num_vertices
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stale_puts = 0
        self.generation = 0

    # ------------------------------------------------------------------
    def _registry(self):
        from ..obs import get_metrics

        return get_metrics()

    def get(self, vertex: int, mode: str = "classify") -> Optional[np.ndarray]:
        """A copy of the vertex's fresh row, or ``None`` on a miss.

        The copy is taken under the lock: a refill may overwrite the
        row while the caller renders it."""
        registry = self._registry()
        with self._lock:
            rows = self.logits if mode == "classify" else self.embeddings
            if rows is None or not self._fresh[mode][vertex]:
                self.misses += 1
                registry.inc("serve.cache.misses")
                return None
            row = rows[vertex].copy()
            self.hits += 1
        registry.inc("serve.cache.hits")
        return row

    def put(self, vertices: np.ndarray, logits: np.ndarray,
            embeddings: np.ndarray, generation: Optional[int] = None) -> None:
        """Refill the rows of ``vertices`` (both arrays, row-aligned),
        unless an invalidate overtook ``generation`` or the table was
        released."""
        registry = self._registry()
        with self._lock:
            if self.logits is None or (
                generation is not None and generation != self.generation
            ):
                self.stale_puts += 1
                registry.inc("serve.cache.stale_puts")
                return
            self.logits[vertices] = logits
            self.embeddings[vertices] = embeddings
            fresh = self._fresh["classify"]
            self._size += int(np.count_nonzero(~fresh[vertices]))
            fresh[vertices] = True
            self._fresh["embedding"][vertices] = True
            size = self._size
        registry.set_gauge("serve.cache.size", float(size))

    def invalidate(self, vertex: Optional[int] = None) -> int:
        """Clear one vertex's fresh flags (or everyone's), and fail every
        write in flight; returns how many vertices had a fresh row."""
        with self._lock:
            self.generation += 1
            where = slice(None) if vertex is None else vertex
            classify, embedding = self._fresh["classify"], self._fresh["embedding"]
            dropped = int(np.count_nonzero(classify[where] | embedding[where]))
            self._size -= int(np.count_nonzero(classify[where]))
            classify[where] = False
            embedding[where] = False
            size = self._size
        self._registry().set_gauge("serve.cache.size", float(size))
        return dropped

    def close(self) -> None:
        """Release both arrays; every later lookup misses and every later
        refill is dropped."""
        with self._lock:
            self.logits = self.embeddings = None
            for fresh in self._fresh.values():
                fresh[:] = False
            self._size = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def hit_rate(self) -> float:
        return self.hits / max(1, self.hits + self.misses)

    def stats(self) -> Dict[str, Any]:
        return {
            "size": self._size, "hits": self.hits, "misses": self.misses,
            "stale_puts": self.stale_puts, "evictions": 0,
            "hit_rate": self.hit_rate,
        }
