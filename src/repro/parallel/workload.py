"""Per-chunk workloads: the kernel bodies the executor dispatches.

A :class:`ChunkWorkload` is a picklable description of what one chunk of
Algorithm 1/2's parallel loop computes.  The split mirrors the paper's
execution model:

* the *plan* (``repro.parallel.plan``) decides which vertices each task
  owns and which worker runs it;
* the *workload* computes one chunk's disjoint output rows and counts
  the work in a private :class:`KernelStats`;
* the *executor* (``repro.parallel.executor``) runs chunks concurrently
  and merges the per-worker stats deterministically.

Every workload aggregates through one specialized closure call per
chunk (per block for the fused kernels) — Alg. 1's vectorized
gather-reduce with no Python-level per-vertex loop.

Workloads must be picklable so the ``process`` backend can ship them to
worker processes.  Runtime-only state (JIT closures, factor arrays) is
kept in attributes prefixed ``_rt_`` which are stripped from the pickled
state; each worker rebuilds them once via :meth:`ChunkWorkload.prepare`,
matching the paper's claim that specialization cost is amortized because
"the code is tailored to the model but not the data".
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..kernels.base import KernelStats, UpdateParams
from ..kernels.jit import BatchedKernel, JitKernelCache, KernelSpec
from .plan import Chunk

#: One chunk's output: name -> (vertex ids, rows to write at those ids).
ChunkWrites = Dict[str, Tuple[np.ndarray, np.ndarray]]


class ChunkWorkload:
    """Base class: the per-chunk body of one kernel invocation."""

    def output_specs(self) -> Dict[str, Tuple[Tuple[int, ...], np.dtype]]:
        """Name -> (shape, dtype) of every output array to allocate."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Build runtime-only state; called once per worker."""

    def run_chunk(self, chunk: Chunk) -> Tuple[ChunkWrites, KernelStats]:
        """Compute one chunk's disjoint output rows and its work counters."""
        raise NotImplementedError

    def describe(self) -> Dict[str, str]:
        """Span attributes identifying this workload on worker spans."""
        desc = {"workload": type(self).__name__}
        aggregator = getattr(self, "aggregator", None)
        if aggregator is not None:
            desc["aggregator"] = aggregator
        return desc

    def __getstate__(self):
        # Runtime state (closures, factor arrays) is rebuilt per worker.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_rt_")}


class _AggregationChunkBase(ChunkWorkload):
    """Shared closure and counter plumbing of the aggregation workloads."""

    graph: CSRGraph
    h: np.ndarray
    aggregator: str

    def attach_batched(self, batched: BatchedKernel) -> None:
        """Reuse a closure the caller already JIT-specialized."""
        self._rt_batched = batched

    def _spec(self) -> KernelSpec:
        return KernelSpec(feature_len=self.h.shape[1], aggregator=self.aggregator)

    def prepare(self) -> None:
        if getattr(self, "_rt_batched", None) is None:
            self._rt_batched = JitKernelCache().specialize(self.graph, self._spec())
        self._rt_degs = self.graph.degrees()

    # ------------------------------------------------------------------
    def _count_prefetches(
        self, stats: KernelStats, start: int, stop: int
    ) -> None:
        """Alg. 1 line 9 accounting: one prefetch per look-ahead gather."""
        if not self.prefetch_distance:
            return
        # The look-ahead positions are the contiguous range [start+D,
        # min(stop+D, n)) — slice the order directly instead of building
        # and filtering an index array per chunk.
        n = len(self.order)
        lo = start + self.prefetch_distance
        hi = min(stop + self.prefetch_distance, n)
        if lo < hi:
            degs = self._rt_degs
            stats.prefetches += int(
                (degs[self.order[lo:hi]] + 1).sum()
            ) * self.prefetch_lines

    def _count_gathers(self, stats: KernelStats, verts: np.ndarray) -> None:
        gathered = int((self._rt_degs[verts] + 1).sum())
        stats.gathers += gathered
        if self.count_decompressed:
            stats.decompressed_rows += gathered


class BasicAggregationWorkload(_AggregationChunkBase):
    """Algorithm 1's chunk body: gather-reduce ``T`` vertices with prefetch.

    Also serves the compressed kernel (Section 4.3): with
    ``count_decompressed`` set, ``h`` is the decompress-on-gather feature
    matrix and every gathered row is counted as one mask expansion.
    """

    def __init__(
        self,
        graph: CSRGraph,
        h: np.ndarray,
        aggregator: str,
        order: np.ndarray,
        prefetch_distance: int = 0,
        prefetch_lines: int = 2,
        count_decompressed: bool = False,
    ) -> None:
        self.graph = graph
        self.h = h
        self.aggregator = aggregator
        self.order = order
        self.prefetch_distance = prefetch_distance
        self.prefetch_lines = prefetch_lines
        self.count_decompressed = count_decompressed

    def output_specs(self):
        # Preserve the input dtype: fp32 in normal runs, fp64 when a
        # gradcheck drives the whole pipeline at double precision.
        return {"out": (self.h.shape, np.result_type(self.h.dtype, np.float32))}

    def run_chunk(self, chunk: Chunk) -> Tuple[ChunkWrites, KernelStats]:
        verts = self.order[chunk.start : chunk.stop]
        stats = KernelStats(tasks=1)
        rows = self._rt_batched(self.h, verts, chunk.contiguous)
        self._count_gathers(stats, verts)
        self._count_prefetches(stats, chunk.start, chunk.stop)
        return {"out": (verts, rows)}, stats


class BackwardAggregationWorkload(BasicAggregationWorkload):
    """The backward twin of Algorithm 1: chunked rows of ``Âᵀ grad_a``.

    ``h`` holds the upstream gradient ``grad_a``; each chunk writes the
    disjoint ``grad_h`` rows it owns.  The chunk body is inherited
    unchanged — only :meth:`prepare` differs, binding the *backward* JIT
    specialization (a closure over the graph's cached CSC view) and the
    transposed degrees the counters and prefetch accounting walk.
    """

    def prepare(self) -> None:
        if getattr(self, "_rt_batched", None) is None:
            self._rt_batched = JitKernelCache().specialize_backward(
                self.graph, self._spec()
            )
        # Work accounting follows the transposed adjacency: a backward
        # "gather" reads one incoming-gradient row per out-edge + self.
        # The cached transpose memoizes its degree array, so repeated
        # prepare() calls (one per epoch per layer) cost nothing.
        self._rt_degs = self.graph.transpose().degrees()


class FusedLayerWorkload(_AggregationChunkBase):
    """Algorithm 2's task body: aggregate+update ``T`` blocks of ``B`` rows.

    Each chunk spans ``block_size * blocks_per_task`` vertices; blocks are
    aggregated into a scratch buffer and immediately updated with the
    small GEMM, so the ``a`` block never leaves cache.  With
    ``count_decompressed`` set this is the paper's ``combined`` variant.
    """

    def __init__(
        self,
        graph: CSRGraph,
        h: np.ndarray,
        params: UpdateParams,
        aggregator: str,
        order: np.ndarray,
        block_size: int,
        keep_aggregation: bool = False,
        prefetch_distance: int = 0,
        prefetch_lines: int = 2,
        count_decompressed: bool = False,
    ) -> None:
        self.graph = graph
        self.h = h
        self.params = params
        self.aggregator = aggregator
        self.order = order
        self.block_size = block_size
        self.keep_aggregation = keep_aggregation
        self.prefetch_distance = prefetch_distance
        self.prefetch_lines = prefetch_lines
        self.count_decompressed = count_decompressed

    def output_specs(self):
        n, f_in = self.h.shape
        f_out = self.params.weight.shape[1]
        specs = {"h_out": ((n, f_out), np.dtype(np.float32))}
        if self.keep_aggregation:
            specs["a"] = ((n, f_in), np.dtype(np.float32))
        return specs

    def run_chunk(self, chunk: Chunk) -> Tuple[ChunkWrites, KernelStats]:
        batched = self._rt_batched
        order = self.order
        f_in = self.h.shape[1]
        stats = KernelStats(tasks=1)
        h_rows = np.empty(
            (chunk.num_vertices, self.params.weight.shape[1]), dtype=np.float32
        )
        a_rows = (
            np.empty((chunk.num_vertices, f_in), dtype=np.float32)
            if self.keep_aggregation
            else None
        )
        for block_start in range(chunk.start, chunk.stop, self.block_size):
            stats.blocks += 1
            block_end = min(block_start + self.block_size, chunk.stop)
            verts = order[block_start:block_end]
            # Aggregation phase of the block (Alg. 2 lines 3-7).
            scratch = batched(self.h, verts, chunk.contiguous)
            self._count_gathers(stats, verts)
            self._count_prefetches(stats, block_start, block_end)
            local = block_start - chunk.start
            if a_rows is not None:
                a_rows[local : local + len(verts)] = scratch
            # Update phase of the block (Alg. 2 lines 8-10): small GEMM.
            h_rows[local : local + len(verts)] = self.params.apply(scratch)
        idx = order[chunk.start : chunk.stop]
        writes: ChunkWrites = {"h_out": (idx, h_rows)}
        if a_rows is not None:
            writes["a"] = (idx, a_rows)
        return writes, stats
