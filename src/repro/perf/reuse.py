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
    """Exact LRU stack distance of every access (COLD for first touches).

    ``tree`` is a Fenwick tree of 0/1 marks over access times, one mark
    at each vertex's latest touch; plain lists, since per-element NumPy
    indexing would cost more than the tree walk itself.
    """
    t = len(stream)
    out = [COLD] * t
    last_seen = [-1] * num_vertices
    tree = [0] * (t + 1)
    for time, vertex in enumerate(stream.tolist()):
        prev = last_seen[vertex]
        if prev >= 0:
            # Distinct elements touched in (prev, time) = marks in
            # [0, time - 1] minus marks in [0, prev]; then the mark at
            # prev moves to time.
            distinct, i = 0, time
            while i > 0:
                distinct += tree[i]
                i -= i & -i
            i = prev + 1
            while i > 0:
                distinct -= tree[i]
                i -= i & -i
            out[time] = distinct
            i = prev + 1
            while i <= t:
                tree[i] -= 1
                i += i & -i
        i = time + 1
        while i <= t:
            tree[i] += 1
            i += i & -i
        last_seen[vertex] = time
    return np.array(out, dtype=np.int64)


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
