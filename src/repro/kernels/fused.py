"""Algorithm 2: fused aggregation + update.

Each task processes ``T`` blocks of ``B`` vertices: aggregate a block,
then immediately update it with the small GEMM while the hardware
prefetcher streams the next block's inputs.  Two consequences the paper
highlights (Figure 5):

* the ``a`` block is consumed from cache, never re-read from DRAM;
* in inference, one reusable buffer of ``B`` rows replaces the whole
  ``a`` matrix — :class:`KernelStats.peak_buffer_bytes` proves the
  footprint reduction.

Tasks are dispatched through :class:`repro.parallel.ChunkExecutor`; the
``thread`` and ``process`` backends run Algorithm 2's task loop on real
workers with bitwise-identical results.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..obs import get_metrics, get_tracer, publish_counters
from .base import (
    FusedLayerKernel,
    KernelStats,
    UpdateParams,
    validate_inputs,
    validate_order,
)
from .basic import DEFAULT_PREFETCH_DISTANCE, PREFETCH_LINES_PER_VECTOR
from .jit import JitKernelCache, KernelSpec
from ..parallel.executor import ChunkExecutor, ExecutionReport
from ..parallel.plan import build_chunk_plan
from ..parallel.workload import FusedLayerWorkload

#: Default block size B: sized so a block of 256-float rows stays in L2.
DEFAULT_BLOCK_SIZE = 32

#: Default blocks per task T.
DEFAULT_BLOCKS_PER_TASK = 8


class FusedKernel(FusedLayerKernel):
    """The Graphite fused layer of Algorithm 2."""

    name = "fusion"

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        blocks_per_task: int = DEFAULT_BLOCKS_PER_TASK,
        prefetch_distance: int = DEFAULT_PREFETCH_DISTANCE,
        jit_cache: Optional[JitKernelCache] = None,
        executor: Optional[ChunkExecutor] = None,
    ) -> None:
        if block_size <= 0 or blocks_per_task <= 0:
            raise ValueError("block_size and blocks_per_task must be positive")
        self.block_size = block_size
        self.blocks_per_task = blocks_per_task
        self.prefetch_distance = prefetch_distance
        self.jit_cache = jit_cache or JitKernelCache()
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

        compiled_before = self.jit_cache.compilations
        spec = KernelSpec(feature_len=h.shape[1], aggregator=aggregator)
        workload = FusedLayerWorkload(
            graph,
            h,
            params,
            aggregator,
            order,
            block_size=self.block_size,
            keep_aggregation=keep_aggregation,
            prefetch_distance=self.prefetch_distance,
            prefetch_lines=PREFETCH_LINES_PER_VECTOR,
        )
        workload.attach_batched(self.jit_cache.specialize(graph, spec))
        plan = build_chunk_plan(graph, self.block_size * self.blocks_per_task, order)
        with get_tracer().span(
            "kernel.fusion",
            aggregator=aggregator,
            vertices=n,
            edges=graph.num_edges,
            features=int(h.shape[1]),
            features_out=int(params.weight.shape[1]),
            keep_aggregation=keep_aggregation,
            backend=self.executor.backend,
            workers=self.executor.workers,
        ) as span:
            outputs, stats, report = self.executor.run(workload, plan)
            self.last_report = report
            a_full = outputs.get("a") if keep_aggregation else None
            stats.jit_compilations = self.jit_cache.compilations - compiled_before
            # Inference: one reusable B-row buffer per worker (Figure 5c).
            # Training: the full a matrix must survive for backward (Fig. 5b).
            stats.peak_buffer_bytes = (
                a_full.nbytes
                if a_full is not None
                else self.block_size * h.shape[1] * np.dtype(np.float32).itemsize
            )
            f_out = params.weight.shape[1]
            stats.flops = (
                2.0 * stats.gathers * h.shape[1]
                + 2.0 * n * h.shape[1] * f_out
            )
            span.add_counters(stats.as_dict())
        publish_counters(get_metrics(), "kernel.fusion", stats.as_dict(False))
        return outputs["h_out"], a_full, stats
