"""Reuse-distance analysis of the aggregation access stream.

Aggregation touches one feature vector per gathered neighbor.  Whether a
touch hits in cache is governed by its *LRU stack distance*: the number of
distinct vectors touched since the previous touch of the same vector.
With capacity for C vectors, an access hits iff its distance is < C.

This module computes the exact stack-distance histogram of the stream

    for v in processing_order:  for u in N(v) ∪ {v}:  touch(u)

using the classic Bennett-Kruskal algorithm (Fenwick tree over access
times), O(T log T).  Section 4.4's locality ordering exists precisely to
shift this histogram left; Figure 15's randomized/combined/locality
comparison falls out of evaluating the histogram at the machine's scaled
cache capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.csr import CSRGraph

#: Distance assigned to cold (first-touch) accesses.
COLD = np.iinfo(np.int64).max


class _Fenwick:
    """Fenwick tree of 0/1 marks over access times."""

    __slots__ = ("size", "tree")

    def __init__(self, size: int) -> None:
        self.size = size
        self.tree = np.zeros(size + 1, dtype=np.int64)

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        tree = self.tree
        while i <= self.size:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of marks in [0, index]."""
        i = index + 1
        total = 0
        tree = self.tree
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return int(total)


def access_stream(graph: CSRGraph, order: Optional[np.ndarray] = None) -> np.ndarray:
    """The vertex-id sequence touched by aggregation in the given order.

    Each processed vertex touches its neighbors then itself (the self
    contribution of N(v) ∪ {v}).
    """
    if order is None:
        order = np.arange(graph.num_vertices, dtype=np.int64)
    pieces = []
    for v in order:
        pieces.append(graph.neighbors(int(v)))
        pieces.append(np.array([v], dtype=np.int64))
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(pieces).astype(np.int64)


def stack_distances(stream: np.ndarray, num_vertices: int) -> np.ndarray:
    """Exact LRU stack distance of every access (COLD for first touches)."""
    t = len(stream)
    out = np.empty(t, dtype=np.int64)
    last_seen = np.full(num_vertices, -1, dtype=np.int64)
    fen = _Fenwick(t)
    for time, vertex in enumerate(stream):
        prev = last_seen[vertex]
        if prev < 0:
            out[time] = COLD
        else:
            # Distinct elements touched in (prev, time) = marks in range,
            # excluding the element itself (whose mark sits at prev).
            out[time] = fen.prefix_sum(time - 1) - fen.prefix_sum(prev)
            fen.add(prev, -1)
        fen.add(time, 1)
        last_seen[vertex] = time
    return out


@dataclass(frozen=True)
class ReuseProfile:
    """Stack-distance histogram of one (graph, order) aggregation stream."""

    distances: np.ndarray  # per-access stack distance, COLD for cold
    num_vertices: int
    num_accesses: int

    def hit_rate(self, capacity_vectors: float) -> float:
        """Fraction of accesses that hit with capacity for C vectors.

        Cold misses never hit regardless of capacity.
        """
        if self.num_accesses == 0:
            return 0.0
        capacity = max(0.0, capacity_vectors)
        hits = int(np.count_nonzero(self.distances < capacity))
        return hits / self.num_accesses


def reuse_profile(graph: CSRGraph, order: Optional[np.ndarray] = None) -> ReuseProfile:
    """Compute the reuse profile of aggregating ``graph`` in ``order``."""
    stream = access_stream(graph, order)
    distances = stack_distances(stream, graph.num_vertices)
    return ReuseProfile(
        distances=distances,
        num_vertices=graph.num_vertices,
        num_accesses=len(stream),
    )
