"""Vertex processing orders — Section 4.4 of the paper.

During aggregation, processing two vertices that share a neighbor close
together in time shrinks the reuse distance of that neighbor's feature
vector.  Algorithm 3 greedily assigns each vertex to the "group" of its
highest-degree neighbor; emitting groups contiguously then clusters all
readers of each hub together.

An order reaches the two planes differently.  The paper-plane models
(the reuse profile, the cache simulator, the DMA runner) walk
``for v in order`` while all arrays stay indexed by original vertex id.
The value-plane kernels take no order: :func:`apply_order` relabels the
graph, and a kernel walking the relabelled ids in storage order *is*
the ordered pass.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .csr import CSRGraph


def natural_order(graph: CSRGraph) -> np.ndarray:
    """Identity order — process vertices as stored."""
    return np.arange(graph.num_vertices, dtype=np.int64)


def randomized_order(graph: CSRGraph, seed: Optional[int] = 0) -> np.ndarray:
    """A uniformly random permutation.

    Figure 15 uses the average over 5 such orders as the "graph with average
    locality" reference point, destroying any locality the dataset's source
    ordering already embeds.
    """
    rng = np.random.default_rng(seed)
    return rng.permutation(graph.num_vertices).astype(np.int64)


def degree_sorted_order(graph: CSRGraph) -> np.ndarray:
    """Sort by descending degree, ties in vertex order — an ablation
    baseline for Algorithm 3.

    Sorting clusters hubs next to each other but, unlike Algorithm 3, does
    not cluster the *readers* of each hub.
    """
    degs = graph.degrees()
    order = np.argsort(-degs, kind="stable")
    return order.astype(np.int64)


def locality_order(graph: CSRGraph) -> np.ndarray:
    """Algorithm 3: group each vertex under its highest-degree neighbor.

    For each vertex ``v`` find ``u' = argmax degree`` over ``N(v) ∪ {v}``
    and append ``v`` to ``L[u']``.  The final order ``M`` emits the groups
    in vertex-id order of their owners.  Complexity ``O(|V| + |E|)``.

    Every vertex appears exactly once in the output (it joins exactly one
    group), so the result is a permutation — a property the tests check.
    """
    n = graph.num_vertices
    degs = graph.degrees()
    indptr, indices = graph.indptr, graph.indices

    # owner[v] = the highest-degree vertex among N(v) ∪ {v}; ties broken
    # toward the lowest id for determinism.  Vectorized as a segment max
    # over the lexicographic key (degree desc, id asc) packed into one
    # int64 score: deg * (n + 1) - id is strictly monotone in that key
    # because ids stay below n + 1.
    owner = np.arange(n, dtype=np.int64)
    if graph.num_edges:
        scores = degs[indices] * np.int64(n + 1) - indices
        nonempty = np.flatnonzero(degs)
        best = np.maximum.reduceat(scores, indptr[nonempty])
        self_scores = degs[nonempty] * np.int64(n + 1) - nonempty
        take = best > self_scores
        won = best[take]
        owner_degs = (won + n) // (n + 1)
        owner[nonempty[take]] = owner_degs * (n + 1) - won

    # Emit groups: a counting sort of vertices by owner id preserves the
    # "all members of L[u'] adjacent" property of Lines 8-12.
    return np.argsort(owner, kind="stable").astype(np.int64)


def apply_order(graph: CSRGraph, order: np.ndarray) -> CSRGraph:
    """Physically relabel a graph so that ``order[i]`` becomes vertex ``i``.

    The Section 4.4 path of every value-plane kernel: run it on the
    relabelled graph with ``h[order]``, and output row ``i`` is original
    vertex ``order[i]``'s.  A malformed order is rejected here, the one
    permutation check (:func:`is_permutation`).
    """
    n = graph.num_vertices
    order = np.asarray(order, dtype=np.int64)
    if not is_permutation(order, n):
        raise ValueError("order must be a permutation of all vertex ids")
    new_id = np.empty(n, dtype=np.int64)
    new_id[order] = np.arange(n, dtype=np.int64)
    edges = np.stack(
        [np.repeat(new_id, graph.degrees()), new_id[graph.indices]], axis=1
    )
    return CSRGraph.from_edges(
        n, edges, name=graph.name + "@reordered", deduplicate=False
    )


def is_permutation(order: np.ndarray, n: int) -> bool:
    """True iff ``order`` is a permutation of ``0..n-1``."""
    order = np.asarray(order)
    if order.shape != (n,):
        return False
    seen = np.zeros(n, dtype=bool)
    valid = (order >= 0) & (order < n)
    if not valid.all():
        return False
    seen[order] = True
    return bool(seen.all())
