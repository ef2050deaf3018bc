"""DistGNN-style kernels (Section 6): the baseline aggregation and the
shard-level primitives of the partition-parallel trainer.

DistGNN provides the paper's single-socket state of the art: a
vertex-parallel gather-reduce with static chunking, no software-prefetch
tuning and no JIT specialization.  This reproduction mirrors that
structure: plain per-vertex reduction over statically partitioned chunks.

The shard helpers below power ``repro.parallel.sharded``: each worker
owns one partition's rows as a local CSR (see ``graphs.partition``) and
aggregates with :func:`shard_segment_reduce` over an input matrix whose
first ``num_local`` rows are owned features and whose tail rows are halo
(ghost) copies of remote vertices.  DistGNN's *delayed aggregation*
(cd-0/cd-r in the paper's terminology) maps onto this layout by simply
refreshing the halo tail less often than every epoch.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.partition import GraphShard
from ..nn.aggregate import normalization_factors
from .base import AggregationKernel, KernelStats, validate_inputs
from .segment import ScaledCSR


class DistGNNKernel(AggregationKernel):
    """Baseline vertex-parallel aggregation with static chunks."""

    name = "distgnn"

    def __init__(self, num_threads: int = 28) -> None:
        if num_threads <= 0:
            raise ValueError("num_threads must be positive")
        self.num_threads = num_threads

    def aggregate(
        self, graph: CSRGraph, h: np.ndarray, aggregator: str = "gcn"
    ) -> Tuple[np.ndarray, KernelStats]:
        validate_inputs(graph, h)
        edge_factors, self_factors = normalization_factors(graph, aggregator)
        n = graph.num_vertices
        out = np.empty_like(h, dtype=np.float32)
        stats = KernelStats()
        # Static partition: contiguous chunk of vertices per thread.
        chunk = max(1, (n + self.num_threads - 1) // self.num_threads)
        for start in range(0, n, chunk):
            stats.tasks += 1
            for v in range(start, min(start + chunk, n)):
                s, e = graph.indptr[v], graph.indptr[v + 1]
                row = graph.indices[s:e]
                acc = h[v] * self_factors[v]
                if len(row):
                    acc = acc + (h[row] * edge_factors[s:e, None]).sum(axis=0)
                out[v] = acc
                stats.gathers += len(row) + 1
        stats.flops = 2.0 * stats.gathers * h.shape[1]
        return out, stats


# ----------------------------------------------------------------------
# Shard-level primitives for partition-parallel training
# ----------------------------------------------------------------------


def shard_factors(
    edge_factors: np.ndarray, self_factors: np.ndarray, shard: GraphShard
) -> Tuple[np.ndarray, np.ndarray]:
    """Restrict global ψ normalization factors to one shard.

    Edge factors follow the shard's edges via ``edge_positions`` (each
    shard edge keeps its *global*-degree normalization — this is what
    makes sharded aggregation exactly match the serial result); self
    factors restrict to the owned rows.
    """
    return (
        np.ascontiguousarray(edge_factors[shard.edge_positions]),
        np.ascontiguousarray(self_factors[shard.local_vertices]),
    )


def shard_segment_reduce(op: ScaledCSR, x: np.ndarray) -> np.ndarray:
    """Per-shard gather-reduce: ``a[v] = ψ_v x[v] + Σ_e ψ_e x[col(e)]``.

    ``x`` has ``num_local + num_halo`` rows (owned features then halo
    copies); the result has ``num_local`` rows.  One fused pass through
    the shared core — every shard aggregation, forward and transposed,
    goes through this name so a trace can time it.
    """
    return op(x)
