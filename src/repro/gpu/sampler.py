"""Neighborhood sampling and mini-batching — Eq. 3 / Section 3.

The Figure 2 motivation experiment trains a *sampled* GraphSAGE on a
CPU-GPU platform: the CPU samples each mini-batch's layered K-hop
neighborhood (DGL-style message-flow graphs), the GPU runs the layers.
This module is that CPU-side sampler, built for real: per-layer fanout,
uniform sampling without replacement, frontier deduplication — the
dedup is what makes larger batches proportionally cheaper (shared
neighbors are sampled once), the effect behind Fig. 2's shrinking epoch
times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..graphs.csr import CSRGraph


@dataclass(frozen=True)
class LayerBlock:
    """One sampled layer: edges from sampled sources to destination set."""

    dst_vertices: np.ndarray  # vertices whose aggregation this layer computes
    src_vertices: np.ndarray  # deduplicated frontier feeding them
    edge_dst: np.ndarray  # per sampled edge
    edge_src: np.ndarray

    @property
    def num_edges(self) -> int:
        return len(self.edge_dst)


@dataclass(frozen=True)
class MiniBatch:
    """A sampled K-layer mini-batch (outermost layer first)."""

    seed_vertices: np.ndarray
    blocks: Tuple[LayerBlock, ...]

    @property
    def total_sampled_edges(self) -> int:
        return sum(b.num_edges for b in self.blocks)

    @property
    def input_vertices(self) -> np.ndarray:
        """Vertices whose input features must reach the device."""
        return self.blocks[0].src_vertices


def sample_neighbors(
    graph: CSRGraph,
    vertices: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """SAMPLE_k of Eq. 3: up to ``fanout`` neighbors per vertex, uniform
    without replacement (plus the self edge, per N(v) ∪ {v}).

    Returns (edge_dst, edge_src) arrays.
    """
    if fanout <= 0:
        raise ValueError(f"fanout must be positive, got {fanout}")
    dst_parts: List[np.ndarray] = []
    src_parts: List[np.ndarray] = []
    for v in vertices:
        v = int(v)
        row = graph.neighbors(v)
        if len(row) > fanout:
            row = rng.choice(row, size=fanout, replace=False)
        picked = np.append(row, v)  # self edge
        dst_parts.append(np.full(len(picked), v, dtype=np.int64))
        src_parts.append(picked.astype(np.int64))
    if not dst_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(dst_parts), np.concatenate(src_parts)


def sample_blocks(
    graph: CSRGraph,
    seeds: np.ndarray,
    fanouts: Sequence[int],
    rng: np.random.Generator,
) -> MiniBatch:
    """Layered K-hop sampling (DGL-style): innermost layer seeds outward.

    ``fanouts`` is ordered from the input layer to the output layer, the
    DGL convention; sampling proceeds output-to-input, deduplicating each
    frontier before expanding the next layer.
    """
    blocks_reversed: List[LayerBlock] = []
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    for fanout in reversed(list(fanouts)):
        edge_dst, edge_src = sample_neighbors(graph, frontier, fanout, rng)
        src_unique = np.unique(edge_src)
        blocks_reversed.append(
            LayerBlock(
                dst_vertices=frontier,
                src_vertices=src_unique,
                edge_dst=edge_dst,
                edge_src=edge_src,
            )
        )
        frontier = src_unique
    return MiniBatch(
        seed_vertices=np.asarray(seeds, dtype=np.int64),
        blocks=tuple(reversed(blocks_reversed)),
    )


def iterate_minibatches(
    graph: CSRGraph, batch_size: int, fanouts: Sequence[int]
):
    """Yield sampled mini-batches covering every vertex once per epoch,
    in one seeded shuffle of the vertices."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    rng = np.random.default_rng(0)
    order = rng.permutation(graph.num_vertices)
    for start in range(0, graph.num_vertices, batch_size):
        seeds = order[start : start + batch_size]
        yield sample_blocks(graph, seeds, fanouts, rng)


@dataclass
class EpochSamplingStats:
    """Aggregate sampling work of one epoch — the Figure 2 inputs."""

    num_batches: int = 0
    sampled_edges: int = 0
    frontier_vertices: int = 0
    input_vertices: int = 0

    @classmethod
    def collect(
        cls,
        graph: CSRGraph,
        batch_size: int,
        fanouts: Sequence[int],
    ) -> "EpochSamplingStats":
        stats = cls()
        for batch in iterate_minibatches(graph, batch_size, fanouts):
            stats.num_batches += 1
            stats.sampled_edges += batch.total_sampled_edges
            stats.frontier_vertices += sum(len(b.src_vertices) for b in batch.blocks)
            stats.input_vertices += len(batch.input_vertices)
        return stats
