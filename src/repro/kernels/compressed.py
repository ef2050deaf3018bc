"""Feature compression applied to aggregation kernels (Section 4.3).

The compressed kernels hold the input feature matrix in the fixed-stride
mask-compressed form of :mod:`repro.tensors.compression`, decompress each
gathered row on the fly, and track the DRAM bytes the compression avoids.
The numerics are bit-identical to the dense kernels — compression is
lossless by construction.

The chunk body is the same as the dense kernels', so both compressed
variants dispatch through :class:`repro.parallel.ChunkExecutor` and run
on ``thread`` / ``process`` workers unchanged.
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
    validate_order,
)
from .basic import DEFAULT_TASK_SIZE
from .fused import DEFAULT_BLOCK_SIZE, DEFAULT_BLOCKS_PER_TASK
from ..parallel.executor import ChunkExecutor, ExecutionReport
from ..parallel.plan import build_chunk_plan
from ..parallel.workload import BasicAggregationWorkload, FusedLayerWorkload


def _compression_savings(compressed: CompressedMatrix, gathers_per_row: np.ndarray) -> float:
    """DRAM bytes avoided by gathering compressed rows.

    Each gather of row ``v`` moves ``stored`` instead of ``dense`` bytes;
    the saving is weighted by how often each row is gathered.
    """
    dense_row = compressed.cols * compressed.slots.dtype.itemsize
    stored = compressed.counts * compressed.slots.dtype.itemsize + compressed.masks.shape[1]
    return float(((dense_row - stored) * gathers_per_row).sum())


class CompressedKernel(AggregationKernel):
    """Aggregation over a mask-compressed feature matrix."""

    name = "compression"

    def __init__(
        self,
        task_size: int = DEFAULT_TASK_SIZE,
        executor: Optional[ChunkExecutor] = None,
    ) -> None:
        if task_size <= 0:
            raise ValueError(f"task_size must be positive, got {task_size}")
        self.task_size = task_size
        self.executor = executor or ChunkExecutor()
        self.last_report: Optional[ExecutionReport] = None

    def aggregate(
        self,
        graph: CSRGraph,
        h: np.ndarray,
        aggregator: str = "gcn",
        order: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, KernelStats]:
        validate_inputs(graph, h)
        validate_order(graph, order)
        n = graph.num_vertices
        if order is None:
            order = np.arange(n, dtype=np.int64)
        compressed = compress_matrix(h)
        # Decompress-on-gather: restore the dense matrix once (the value
        # plane's equivalent of per-gather mask expansion) and count every
        # gathered row as one expansion.
        dense = decompress_matrix(compressed)
        workload = BasicAggregationWorkload(
            graph, dense, aggregator, order, count_decompressed=True
        )
        plan = build_chunk_plan(graph, self.task_size, order)
        with get_tracer().span(
            "kernel.compression",
            aggregator=aggregator,
            vertices=n,
            edges=graph.num_edges,
            features=int(h.shape[1]),
            workers=self.executor.workers,
        ) as span:
            outputs, stats, report = self.executor.run(workload, plan)
            self.last_report = report
            stats.compressed_rows = n
            gathers_per_row = np.bincount(graph.indices, minlength=n) + 1
            stats.dram_bytes_saved = _compression_savings(compressed, gathers_per_row)
            stats.flops = 2.0 * stats.gathers * h.shape[1]
            span.add_counters(stats.as_dict())
        publish_counters(get_metrics(), "kernel.compression", stats.as_dict(False))
        return outputs["out"], stats


class CompressedFusedKernel(FusedLayerKernel):
    """Fusion + compression: the paper's ``combined`` variant."""

    name = "combined"

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        blocks_per_task: int = DEFAULT_BLOCKS_PER_TASK,
        executor: Optional[ChunkExecutor] = None,
    ) -> None:
        if block_size <= 0 or blocks_per_task <= 0:
            raise ValueError("block_size and blocks_per_task must be positive")
        self.block_size = block_size
        self.blocks_per_task = blocks_per_task
        self.executor = executor or ChunkExecutor()
        self.last_report: Optional[ExecutionReport] = None

    def run_layer(
        self,
        graph: CSRGraph,
        h: np.ndarray,
        params: UpdateParams,
        aggregator: str = "gcn",
        keep_aggregation: bool = False,
        order: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], KernelStats]:
        validate_inputs(graph, h)
        if params.weight.shape[0] != h.shape[1]:
            raise ValueError(
                f"weight rows {params.weight.shape[0]} != features {h.shape[1]}"
            )
        validate_order(graph, order)
        n = graph.num_vertices
        if order is None:
            order = np.arange(n, dtype=np.int64)
        compressed = compress_matrix(h)
        dense = decompress_matrix(compressed)
        workload = FusedLayerWorkload(
            graph,
            dense,
            params,
            aggregator,
            order,
            block_size=self.block_size,
            keep_aggregation=keep_aggregation,
            count_decompressed=True,
        )
        plan = build_chunk_plan(graph, self.block_size * self.blocks_per_task, order)
        with get_tracer().span(
            "kernel.combined",
            aggregator=aggregator,
            vertices=n,
            edges=graph.num_edges,
            features=int(h.shape[1]),
            features_out=int(params.weight.shape[1]),
            keep_aggregation=keep_aggregation,
            workers=self.executor.workers,
        ) as span:
            outputs, stats, report = self.executor.run(workload, plan)
            self.last_report = report
            a_full = outputs.get("a") if keep_aggregation else None
            stats.compressed_rows = n
            stats.peak_buffer_bytes = (
                a_full.nbytes
                if a_full is not None
                else self.block_size * h.shape[1] * np.dtype(np.float32).itemsize
            )
            gathers_per_row = np.bincount(graph.indices, minlength=n) + 1
            stats.dram_bytes_saved = _compression_savings(compressed, gathers_per_row)
            f_out = params.weight.shape[1]
            stats.flops = (
                2.0 * stats.gathers * h.shape[1] + 2.0 * n * h.shape[1] * f_out
            )
            span.add_counters(stats.as_dict())
        publish_counters(get_metrics(), "kernel.combined", stats.as_dict(False))
        return outputs["h_out"], a_full, stats
