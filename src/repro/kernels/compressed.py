"""Feature compression applied to aggregation kernels (Section 4.3).

The compressed kernels hold the input feature matrix in the fixed-stride
mask-compressed form of :mod:`repro.tensors.compression`, decompress each
gathered row on the fly, and track the DRAM bytes the compression avoids.
The numerics are bit-identical to the dense kernels — compression is
lossless by construction.

Past the decompression they are the dense kernels: ``compression`` runs
the single-call lane pass of :func:`repro.kernels.basic.aggregate_rows`
and ``combined`` runs Algorithm 2's block loop,
:func:`repro.kernels.fused.run_blocks`.  Neither issues prefetches.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..obs import get_metrics, get_tracer, publish_counters
from ..tensors.compression import (
    CompressedMatrix,
    compress_matrix,
    decompress_matrix,
)
from .base import (
    AggregationKernel,
    FusedLayerKernel,
    KernelStats,
    UpdateParams,
    validate_inputs,
)
from .basic import DEFAULT_TASK_SIZE, aggregate_rows
from .fused import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_BLOCKS_PER_TASK,
    fused_stats,
    run_blocks,
    validate_layer,
)
from .jit import JitKernelCache, KernelSpec


def _compression_savings(compressed: CompressedMatrix, gathers_per_row: np.ndarray) -> float:
    """DRAM bytes avoided by gathering compressed rows.

    Each gather of row ``v`` moves ``stored`` instead of ``dense`` bytes;
    the saving is weighted by how often each row is gathered.
    """
    dense_row = compressed.cols * compressed.slots.dtype.itemsize
    stored = compressed.counts * compressed.slots.dtype.itemsize + compressed.masks.shape[1]
    return float(((dense_row - stored) * gathers_per_row).sum())


def _decompressed(graph: CSRGraph, h: np.ndarray) -> Tuple[np.ndarray, KernelStats]:
    """The decompress-on-gather input and the compression counters.

    Restoring the dense matrix once is the value plane's equivalent of
    per-gather mask expansion; every gathered row (``E + V``) counts as
    one expansion and every vertex as one collapse.
    """
    n = graph.num_vertices
    compressed = compress_matrix(h)
    gathers_per_row = np.bincount(graph.indices, minlength=n) + 1
    stats = KernelStats(
        decompressed_rows=graph.num_edges + n,
        compressed_rows=n,
        dram_bytes_saved=_compression_savings(compressed, gathers_per_row),
    )
    return decompress_matrix(compressed), stats


class CompressedKernel(AggregationKernel):
    """Aggregation over a mask-compressed feature matrix."""

    name = "compression"

    def __init__(self, task_size: int = DEFAULT_TASK_SIZE) -> None:
        if task_size <= 0:
            raise ValueError(f"task_size must be positive, got {task_size}")
        self.task_size = task_size
        self.jit_cache = JitKernelCache()

    def aggregate(
        self,
        graph: CSRGraph,
        h: np.ndarray,
        aggregator: str = "gcn",
    ) -> Tuple[np.ndarray, KernelStats]:
        validate_inputs(graph, h)
        n = graph.num_vertices
        spec = KernelSpec(feature_len=h.shape[1], aggregator=aggregator)
        batched = self.jit_cache.specialize(graph, spec)
        dense, stats = _decompressed(graph, h)
        with get_tracer().span(
            "kernel.compression",
            aggregator=aggregator,
            vertices=n,
            edges=graph.num_edges,
            features=int(h.shape[1]),
        ) as span:
            out = aggregate_rows(batched.operator, dense)
            stats.gathers = graph.num_edges + n
            stats.tasks = -(-n // self.task_size)
            stats.flops = 2.0 * stats.gathers * h.shape[1]
            span.add_counters(stats.as_dict())
        publish_counters(get_metrics(), "kernel.compression", stats.as_dict(False))
        return out, stats


class CompressedFusedKernel(FusedLayerKernel):
    """Fusion + compression: the paper's ``combined`` variant."""

    name = "combined"

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        blocks_per_task: int = DEFAULT_BLOCKS_PER_TASK,
    ) -> None:
        if block_size <= 0 or blocks_per_task <= 0:
            raise ValueError("block_size and blocks_per_task must be positive")
        self.block_size = block_size
        self.blocks_per_task = blocks_per_task
        self.jit_cache = JitKernelCache()

    def run_layer(
        self,
        graph: CSRGraph,
        h: np.ndarray,
        params: UpdateParams,
        aggregator: str = "gcn",
        keep_aggregation: bool = False,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], KernelStats]:
        validate_layer(graph, h, params)
        spec = KernelSpec(feature_len=h.shape[1], aggregator=aggregator)
        batched = self.jit_cache.specialize(graph, spec)
        dense, compression = _decompressed(graph, h)
        with get_tracer().span(
            "kernel.combined",
            aggregator=aggregator,
            vertices=graph.num_vertices,
            edges=graph.num_edges,
            features=int(h.shape[1]),
            features_out=int(params.weight.shape[1]),
            keep_aggregation=keep_aggregation,
        ) as span:
            h_out, a = run_blocks(
                batched, dense, params,
                self.block_size, self.blocks_per_task, keep_aggregation,
            )
            stats = fused_stats(
                graph, h, params, self.block_size, self.blocks_per_task, a
            )
            stats.merge(compression)
            span.add_counters(stats.as_dict())
        publish_counters(get_metrics(), "kernel.combined", stats.as_dict(False))
        return h_out, a, stats
