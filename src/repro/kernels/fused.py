"""Algorithm 2: fused aggregation + update.

Each task processes ``T`` blocks of ``B`` vertices: aggregate a block,
then immediately update it with the small GEMM while the hardware
prefetcher streams the next block's inputs.  Two consequences the paper
highlights (Figure 5):

* the ``a`` block is consumed from cache, never re-read from DRAM;
* in inference, one reusable buffer of ``B`` rows replaces the whole
  ``a`` matrix — :class:`KernelStats.peak_buffer_bytes` proves the
  footprint reduction.

:func:`run_blocks` is that loop.  The lanes (:func:`repro.lanes.split`)
cut the range of *tasks*, never the inside of a block, so every block's
aggregation and GEMM sees the same rows at every lane count and the
output is bitwise the serial one.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import lanes
from ..graphs.csr import CSRGraph
from ..obs import get_metrics, get_tracer, publish_counters
from .base import FusedLayerKernel, KernelStats, UpdateParams, validate_inputs
from .basic import DEFAULT_PREFETCH_DISTANCE, prefetch_count
from .jit import BatchedKernel, JitKernelCache, KernelSpec

#: Default block size B: sized so a block of 256-float rows stays in L2.
DEFAULT_BLOCK_SIZE = 32

#: Default blocks per task T.
DEFAULT_BLOCKS_PER_TASK = 8


def run_blocks(
    batched: BatchedKernel,
    h: np.ndarray,
    params: UpdateParams,
    block_size: int,
    blocks_per_task: int,
    keep_aggregation: bool,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Algorithm 2's task loop: ``(h_out, a)``.

    Vertex ``v`` belongs to block ``v // B`` and task ``v // (B T)``.
    Each block is aggregated (Alg. 2 lines 3-7) and updated by the small
    GEMM (lines 8-10) before the next one; ``a`` is kept only in
    training mode.
    """
    n, f_in = h.shape
    h_out = np.empty((n, params.weight.shape[1]), dtype=np.float32)
    a = np.empty((n, f_in), dtype=np.float32) if keep_aggregation else None
    span = block_size * blocks_per_task

    def run_tasks(first: int, stop: int) -> None:
        for lo in range(first * span, min(stop * span, n), block_size):
            hi = min(lo + block_size, n)
            scratch = batched(h, lo, hi)
            if a is not None:
                a[lo:hi] = scratch
            h_out[lo:hi] = params.apply(scratch)

    moved = h.nbytes + h_out.nbytes + (0 if a is None else a.nbytes)
    lanes.split(-(-n // span), moved, run_tasks)
    return h_out, a


def fused_stats(
    graph: CSRGraph,
    h: np.ndarray,
    params: UpdateParams,
    block_size: int,
    blocks_per_task: int,
    a: Optional[np.ndarray],
) -> KernelStats:
    """Alg. 2's counters in closed form: ``E + V`` gathers, one task per
    ``B T`` positions, one block per ``B`` (tasks start on block
    boundaries), and the aggregation + GEMM FLOPs."""
    n = graph.num_vertices
    gathers = graph.num_edges + n
    return KernelStats(
        gathers=gathers,
        tasks=-(-n // (block_size * blocks_per_task)),
        blocks=-(-n // block_size),
        # Inference: one reusable B-row buffer (Figure 5c).  Training:
        # the full a matrix must survive for backward (Figure 5b).
        peak_buffer_bytes=(
            a.nbytes
            if a is not None
            else block_size * h.shape[1] * np.dtype(np.float32).itemsize
        ),
        flops=2.0 * gathers * h.shape[1]
        + 2.0 * n * h.shape[1] * params.weight.shape[1],
    )


def validate_layer(graph: CSRGraph, h: np.ndarray, params: UpdateParams) -> None:
    """The input checks every fused layer kernel runs."""
    validate_inputs(graph, h)
    if params.weight.shape[0] != h.shape[1]:
        raise ValueError(
            f"weight rows {params.weight.shape[0]} != features {h.shape[1]}"
        )


class FusedKernel(FusedLayerKernel):
    """The Graphite fused layer of Algorithm 2."""

    name = "fusion"

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        blocks_per_task: int = DEFAULT_BLOCKS_PER_TASK,
        prefetch_distance: int = DEFAULT_PREFETCH_DISTANCE,
        jit_cache: Optional[JitKernelCache] = None,
    ) -> None:
        if block_size <= 0 or blocks_per_task <= 0:
            raise ValueError("block_size and blocks_per_task must be positive")
        self.block_size = block_size
        self.blocks_per_task = blocks_per_task
        self.prefetch_distance = prefetch_distance
        self.jit_cache = jit_cache or JitKernelCache()

    def run_layer(
        self,
        graph: CSRGraph,
        h: np.ndarray,
        params: UpdateParams,
        aggregator: str = "gcn",
        keep_aggregation: bool = False,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], KernelStats]:
        validate_layer(graph, h, params)
        compiled_before = self.jit_cache.compilations
        spec = KernelSpec(feature_len=h.shape[1], aggregator=aggregator)
        batched = self.jit_cache.specialize(graph, spec)
        with get_tracer().span(
            "kernel.fusion",
            aggregator=aggregator,
            vertices=graph.num_vertices,
            edges=graph.num_edges,
            features=int(h.shape[1]),
            features_out=int(params.weight.shape[1]),
            keep_aggregation=keep_aggregation,
        ) as span:
            h_out, a = run_blocks(
                batched, h, params,
                self.block_size, self.blocks_per_task, keep_aggregation,
            )
            stats = fused_stats(
                graph, h, params, self.block_size, self.blocks_per_task, a
            )
            stats.prefetches = prefetch_count(
                graph.degrees(), self.prefetch_distance
            )
            stats.jit_compilations = self.jit_cache.compilations - compiled_before
            span.add_counters(stats.as_dict())
        publish_counters(get_metrics(), "kernel.fusion", stats.as_dict(False))
        return h_out, a, stats
