"""Synthetic graph generators.

The paper evaluates on four real graphs (Table 3).  Those datasets are not
redistributable here, so :mod:`repro.graphs.datasets` builds scaled-down
*twins* from these generators, matched on the degree statistics the paper
reports (mean degree, max degree, degree variance).

All generators are deterministic given a seed.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .csr import CSRGraph, _csr_arrays


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def uniform_graph(
    num_vertices: int,
    avg_degree: float,
    seed: Optional[int] = 0,
    name: str = "uniform",
) -> CSRGraph:
    """Erdos-Renyi-style directed graph with near-uniform in-degrees."""
    rng = _rng(seed)
    num_edges = int(num_vertices * avg_degree)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    return CSRGraph.from_edges(num_vertices, np.stack([dst, src], axis=1), name=name)


def power_law_graph(
    num_vertices: int,
    avg_degree: float,
    seed: Optional[int] = 0,
    name: str = "power-law",
) -> CSRGraph:
    """Directed graph whose in-degrees follow a power law of exponent
    2.1, truncated at ``num_vertices - 1``.

    Real-world graph degrees "can vary significantly and sometimes follow a
    power law distribution" (paper Section 4.1); the load-balancing and
    locality techniques are motivated by exactly this skew.

    Sources are drawn with probability proportional to their own degree
    weight, giving the hub structure (high-degree vertices are referenced
    by many rows) that the locality reordering of Algorithm 3 exploits.
    """
    if not 0 < avg_degree < math.inf:
        raise ValueError(
            f"avg_degree must be a positive, finite number, got {avg_degree!r}"
        )
    rng = _rng(seed)
    exponent, max_degree = 2.1, num_vertices - 1
    # Draw per-vertex weights w_v ~ Pareto(exponent - 1), truncate, then
    # scale so the expected total equals num_vertices * avg_degree.
    weights = rng.pareto(exponent - 1.0, size=num_vertices) + 1.0
    weights = np.minimum(weights, float(max_degree))
    in_degrees = weights / weights.sum() * (num_vertices * avg_degree)
    in_degrees = np.minimum(np.round(in_degrees).astype(np.int64), max_degree)
    in_degrees = np.maximum(in_degrees, 1)
    total = int(in_degrees.sum())
    # Preferential attachment on the source side: hubs appear as neighbors
    # of many vertices.
    src_probs = weights / weights.sum()
    dst = np.repeat(np.arange(num_vertices, dtype=np.int64), in_degrees)
    src = rng.choice(num_vertices, size=total, p=src_probs).astype(np.int64)
    return CSRGraph.from_edges(num_vertices, np.stack([dst, src], axis=1), name=name)


def grid_graph(side: int, name: str = "grid") -> CSRGraph:
    """4-neighbor 2-D grid — a fully regular graph useful in tests."""
    n = side * side
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if r > 0:
                edges.append((v, v - side))
            if r < side - 1:
                edges.append((v, v + side))
            if c > 0:
                edges.append((v, v - 1))
            if c < side - 1:
                edges.append((v, v + 1))
    return CSRGraph.from_edges(n, edges, name=name)


def planted_partition_graph(
    num_vertices: int,
    num_classes: int,
    p_in: float,
    p_out: float,
    seed: Optional[int] = 0,
    name: str = "planted",
) -> Tuple[CSRGraph, np.ndarray]:
    """Community graph with ground-truth labels.

    Vertices in the same class connect with probability ``p_in`` and across
    classes with ``p_out``.  Used by the end-to-end training tests, where
    a GCN should recover the communities.

    Returns:
        (graph, labels) where labels[v] in [0, num_classes).
    """
    rng = _rng(seed)
    labels = rng.integers(0, num_classes, size=num_vertices, dtype=np.int64)
    # Sample edges blockwise to stay vectorized: expected edge count is
    # n^2 * p, so draw that many candidate pairs and filter by class match.
    expected = int(num_vertices * num_vertices * max(p_in, p_out) * 1.2) + 16
    dst = rng.integers(0, num_vertices, size=expected, dtype=np.int64)
    src = rng.integers(0, num_vertices, size=expected, dtype=np.int64)
    same = labels[dst] == labels[src]
    keep_prob = np.where(same, p_in / max(p_in, p_out), p_out / max(p_in, p_out))
    keep = rng.random(expected) < keep_prob
    dst, src = dst[keep], src[keep]
    # Symmetrize so information flows both ways.
    all_dst = np.concatenate([dst, src])
    all_src = np.concatenate([src, dst])
    graph = CSRGraph.from_edges(
        num_vertices, np.stack([all_dst, all_src], axis=1), name=name
    )
    return graph, labels


def star_graph(num_leaves: int, name: str = "star") -> CSRGraph:
    """One hub gathered by every leaf (and the hub gathers every leaf).

    Extreme-skew corner case for the locality and load-balance code paths.
    """
    edges = [(0, leaf) for leaf in range(1, num_leaves + 1)]
    edges += [(leaf, 0) for leaf in range(1, num_leaves + 1)]
    return CSRGraph.from_edges(num_leaves + 1, edges, name=name)


def chain_graph(num_vertices: int, name: str = "chain") -> CSRGraph:
    """Simple path; each vertex gathers from its predecessor."""
    edges = [(v, v - 1) for v in range(1, num_vertices)]
    return CSRGraph.from_edges(num_vertices, edges, name=name)


def community_graph(
    num_vertices: int,
    avg_degree: float,
    community_size: int,
    within_fraction: float = 0.8,
    hub_exponent: float = 2.0,
    degree_exponent: float = 2.1,
    scatter_ids: bool = True,
    scatter_fraction: float = 1.0,
    seed: Optional[int] = 0,
    name: str = "community",
) -> CSRGraph:
    """Power-law graph with planted communities and per-community hubs.

    Real graphs combine two structures that drive the paper's locality
    results (Section 7.2.4): hubs (vertices gathered by many others) and
    communities (vertices that share much of their neighborhood).  Random
    power-law graphs have hubs but no neighbor sharing, which starves
    Algorithm 3 of reuse to exploit; this generator plants both.

    Args:
        num_vertices: vertex count.
        avg_degree: target mean in-degree.
        community_size: expected community size; communities whose feature
            vectors fit in cache are where reordering pays off.
        within_fraction: fraction of each vertex's neighbors drawn from
            its own community (the rest are global).
        hub_exponent: Pareto tail of the hub-weight distribution; smaller
            means heavier hubs.
        degree_exponent: Pareto tail of the per-vertex in-degree draw.
        scatter_ids: permute vertex ids so communities are NOT contiguous
            in the natural order (a graph "optimized at the source" keeps
            them contiguous — the wikipedia/twitter situation of Fig. 15).
        scatter_fraction: fraction of ids shuffled when scattering; values
            below 1 model a source ordering with *partial* locality, which
            Algorithm 3 can still improve on (paper Section 7.2.4).
        seed: RNG seed.
    """
    if community_size < 2:
        raise ValueError("community_size must be >= 2")
    if not 0.0 <= within_fraction <= 1.0:
        raise ValueError("within_fraction must be in [0, 1]")
    if not 0.0 <= scatter_fraction <= 1.0:
        raise ValueError("scatter_fraction must be in [0, 1]")
    args = (
        num_vertices,
        avg_degree,
        community_size,
        within_fraction,
        hub_exponent,
        degree_exponent,
        scatter_ids,
        scatter_fraction,
        seed,
        name,
    )
    graph = _community_graph_once(*args, oversample=1.12)
    # Skewed within-community draws collapse many duplicate edges; one
    # corrective pass rescales the draw to land near the target mean degree.
    achieved = graph.num_edges / max(1, num_vertices)
    if achieved < avg_degree * 0.9:
        del graph  # only its edge count is read: free it before the rebuild
        factor = min(8.0, 1.12 * avg_degree / max(achieved, 1e-9))
        graph = _community_graph_once(*args, oversample=factor)
    return graph


def _community_graph_once(
    num_vertices: int,
    avg_degree: float,
    community_size: int,
    within_fraction: float,
    hub_exponent: float,
    degree_exponent: float,
    scatter_ids: bool,
    scatter_fraction: float,
    seed: Optional[int],
    name: str,
    oversample: float,
) -> CSRGraph:
    """One generation pass of :func:`community_graph`."""
    rng = _rng(seed)
    n = num_vertices
    num_comms = max(1, n // community_size)
    # Communities are contiguous id blocks; ``scatter_ids`` below decides
    # whether the natural order preserves that contiguity (a pre-localized
    # source ordering) or destroys it.
    community = (np.arange(n, dtype=np.int64) * num_comms) // n
    # ``community`` is nondecreasing: community c is the id range
    # ``starts[c]:starts[c + 1]``.
    sizes = np.bincount(community, minlength=num_comms)
    starts = np.zeros(num_comms + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    # Hub weights: heavier tail -> stronger hubs.  The extreme tail is
    # capped so a handful of monster hubs cannot absorb nearly all edges
    # (they would collapse under duplicate removal and hijack every
    # vertex's highest-degree neighbor choice in Algorithm 3).
    weights = rng.pareto(hub_exponent - 1.0, size=n) + 1.0
    weights = np.minimum(weights, np.quantile(weights, 0.995) * 4.0)
    # In-degree correlates with hub popularity (in real graphs, heavily
    # gathered vertices also gather a lot — products is undirected), which
    # is what lets Algorithm 3's degree test identify the hubs.
    noise = rng.pareto(degree_exponent - 1.0, size=n) + 1.0
    noise = np.minimum(noise, np.quantile(noise, 0.995) * 4.0)
    raw = 0.6 * weights / weights.mean() + 0.4 * noise / noise.mean()
    in_deg = np.maximum(
        1, np.round(raw / raw.mean() * avg_degree * oversample).astype(np.int64)
    )
    in_deg = np.minimum(in_deg, n - 1)
    # Give each community one dominant hub: boost the in-degree of its
    # heaviest member so that Algorithm 3's highest-degree-neighbor test
    # resolves to a single owner per community instead of fragmenting the
    # community across several similar-degree vertices.
    for lo, hi in zip(starts[:-1], starts[1:]):
        if lo == hi:
            continue
        hub = lo + int(np.argmax(weights[lo:hi]))
        in_deg[hub] = min(n - 1, in_deg[hub] * 3 + int(avg_degree))

    # Within-community degree saturates at community size; the surplus is
    # dropped (small communities simply cannot absorb more distinct
    # neighbors) rather than rerouted to cross edges, which would dilute
    # the within_fraction contract.  A singleton community has no peer.
    cross_budget = rng.binomial(in_deg, 1.0 - within_fraction)
    within_counts = np.minimum(
        in_deg - cross_budget, np.maximum(1, sizes[community] - 1)
    )
    within_counts[sizes[community] < 2] = 0
    # Edges are emitted vertex by vertex, within picks first: community
    # c's picks fill ``src[at[c]:at[c + 1]]``.
    at = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(within_counts, out=at[1:])
    at = at[starts]
    num_within = int(at[-1])
    src = np.empty(num_within + int(cross_budget.sum()), dtype=np.int64)
    for c in range(num_comms):
        lo, hi = starts[c], starts[c + 1]
        size = int(hi - lo)
        if size < 2 or at[c] == at[c + 1]:
            continue
        # Weighted sampling WITHOUT replacement via Gumbel top-k: each
        # member ranks every community peer by log-weight + Gumbel noise
        # and takes its top count picks.  Without-replacement sampling is
        # essential — drawing with replacement from a skewed small
        # community collapses to a handful of distinct edges after
        # deduplication, destroying the within_fraction contract.
        keys = np.log(weights[lo:hi])[None, :] + rng.gumbel(
            size=(size, size)
        )
        np.fill_diagonal(keys, -np.inf)  # no self edges here
        ranked = np.argsort(-keys, axis=1)
        picked = np.arange(size) < within_counts[lo:hi, None]
        src[at[c] : at[c + 1]] = lo + ranked[picked]
    # Cross-community edges are drawn uniformly: they provide the
    # background miss traffic of long-range links without making a global
    # mega-hub every vertex's highest-degree neighbor (which would defeat
    # the community grouping that Algorithm 3 recovers).
    if len(src) > num_within:
        src[num_within:] = rng.integers(
            0, n, size=len(src) - num_within, dtype=np.int64
        )
    vertices = np.arange(n, dtype=np.int64)
    dst = np.repeat(
        np.concatenate([vertices, vertices]),
        np.concatenate([within_counts, cross_budget]),
    )

    if scatter_ids and scatter_fraction > 0.0:
        perm = np.arange(n, dtype=np.int64)
        k = int(round(n * scatter_fraction))
        if k >= 2:
            chosen = rng.choice(n, size=k, replace=False)
            perm[chosen] = perm[rng.permutation(chosen)]
        # One endpoint array at a time: three E-sized arrays, not four.
        dst = perm[dst]
        src = perm[src]
    return CSRGraph(*_csr_arrays(n, dst, src, deduplicate=True), name=name)
