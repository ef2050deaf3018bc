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

Each workload executes on one of two engines:

* ``loop`` — one specialized closure call per vertex (the original,
  interpreter-bound execution);
* ``batched`` — one batched segment-reduce call per chunk (or per fused
  block), Alg. 1's vectorized gather-reduce with no Python-level
  per-vertex loop.

Both engines produce the same :class:`KernelStats` counters exactly and
agree on the outputs to fp32 reduction-order tolerance (the engine
differential suite enforces it).

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
from ..kernels.base import ENGINES, KernelStats, UpdateParams
from ..kernels.jit import BatchedKernel, InnerKernel, JitKernelCache, KernelSpec
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
        for key in ("aggregator", "engine"):
            value = getattr(self, key, None)
            if value is not None:
                desc[key] = value
        return desc

    def __getstate__(self):
        # Runtime state (closures, factor arrays) is rebuilt per worker.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_rt_")}


class _AggregationChunkBase(ChunkWorkload):
    """Shared engine plumbing of the two aggregation workloads."""

    graph: CSRGraph
    h: np.ndarray
    aggregator: str
    engine: str

    def attach_inner(self, inner: InnerKernel) -> None:
        """Reuse a loop closure the caller already JIT-specialized."""
        self._rt_inner = inner

    def attach_batched(self, batched: BatchedKernel) -> None:
        """Reuse a batched closure the caller already JIT-specialized."""
        self._rt_batched = batched

    def prepare(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        spec = KernelSpec(feature_len=self.h.shape[1], aggregator=self.aggregator)
        if self.engine == "batched":
            if getattr(self, "_rt_batched", None) is None:
                self._rt_batched = JitKernelCache().specialize_batched(
                    self.graph, spec
                )
        elif getattr(self, "_rt_inner", None) is None:
            self._rt_inner = JitKernelCache().specialize(self.graph, spec)
        self._rt_degs = self.graph.degrees()

    # ------------------------------------------------------------------
    def _count_prefetches(
        self, stats: KernelStats, start: int, stop: int
    ) -> None:
        """Vectorized Alg. 1 line 9 accounting, identical to the loop's."""
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
        engine: str = "loop",
    ) -> None:
        self.graph = graph
        self.h = h
        self.aggregator = aggregator
        self.order = order
        self.prefetch_distance = prefetch_distance
        self.prefetch_lines = prefetch_lines
        self.count_decompressed = count_decompressed
        self.engine = engine

    def output_specs(self):
        # Preserve the input dtype: fp32 in normal runs, fp64 when a
        # gradcheck drives the whole pipeline at double precision.
        return {"out": (self.h.shape, np.result_type(self.h.dtype, np.float32))}

    def run_chunk(self, chunk: Chunk) -> Tuple[ChunkWrites, KernelStats]:
        if self.engine == "batched":
            return self._run_chunk_batched(chunk)
        inner = self._rt_inner
        degs = self._rt_degs
        order = self.order
        n = len(order)
        rows = np.empty(
            (chunk.num_vertices, self.h.shape[1]),
            dtype=np.result_type(self.h.dtype, np.float32),
        )
        stats = KernelStats(tasks=1)
        for m, pos in enumerate(range(chunk.start, chunk.stop)):
            v = int(order[pos])
            rows[m] = inner(self.h, v)
            stats.gathers += int(degs[v]) + 1
            if self.count_decompressed:
                stats.decompressed_rows += int(degs[v]) + 1
            # Prefetch the first lines of the vertex D ahead (Alg. 1 line 9).
            ahead = pos + self.prefetch_distance
            if self.prefetch_distance and ahead < n:
                v_ahead = int(order[ahead])
                stats.prefetches += (int(degs[v_ahead]) + 1) * self.prefetch_lines
        return {"out": (order[chunk.start : chunk.stop], rows)}, stats

    def _run_chunk_batched(self, chunk: Chunk) -> Tuple[ChunkWrites, KernelStats]:
        """The whole chunk in one segment-reduce call, same counters."""
        verts = self.order[chunk.start : chunk.stop]
        stats = KernelStats(tasks=1)
        rows = self._rt_batched(self.h, verts, chunk.contiguous)
        self._count_gathers(stats, verts)
        self._count_prefetches(stats, chunk.start, chunk.stop)
        return {"out": (verts, rows)}, stats


class BackwardAggregationWorkload(BasicAggregationWorkload):
    """The backward twin of Algorithm 1: chunked rows of ``Âᵀ grad_a``.

    ``h`` holds the upstream gradient ``grad_a``; each chunk writes the
    disjoint ``grad_h`` rows it owns.  The chunk bodies are inherited
    unchanged — only :meth:`prepare` differs, binding the *backward* JIT
    specializations (closures over the graph's cached CSC view) and the
    transposed degrees the counters and prefetch accounting walk.  The
    two engines therefore keep the exact stats-parity and bitwise
    properties of the forward pass.
    """

    def prepare(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        spec = KernelSpec(feature_len=self.h.shape[1], aggregator=self.aggregator)
        if self.engine == "batched":
            if getattr(self, "_rt_batched", None) is None:
                self._rt_batched = JitKernelCache().specialize_batched_backward(
                    self.graph, spec
                )
        elif getattr(self, "_rt_inner", None) is None:
            self._rt_inner = JitKernelCache().specialize_backward(self.graph, spec)
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
    The ``batched`` engine aggregates each block in one segment-reduce
    call, preserving the block granularity (and ``stats.blocks``).
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
        engine: str = "loop",
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
        self.engine = engine

    def output_specs(self):
        n, f_in = self.h.shape
        f_out = self.params.weight.shape[1]
        specs = {"h_out": ((n, f_out), np.dtype(np.float32))}
        if self.keep_aggregation:
            specs["a"] = ((n, f_in), np.dtype(np.float32))
        return specs

    def run_chunk(self, chunk: Chunk) -> Tuple[ChunkWrites, KernelStats]:
        if self.engine == "batched":
            return self._run_chunk_batched(chunk)
        inner = self._rt_inner
        degs = self._rt_degs
        order = self.order
        n = len(order)
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
            count = block_end - block_start
            # Aggregation phase of the block (Alg. 2 lines 3-7).
            scratch = np.empty((count, f_in), dtype=np.float32)
            for m in range(count):
                v = int(order[block_start + m])
                scratch[m] = inner(self.h, v)
                stats.gathers += int(degs[v]) + 1
                if self.count_decompressed:
                    stats.decompressed_rows += int(degs[v]) + 1
                ahead = block_start + m + self.prefetch_distance
                if self.prefetch_distance and ahead < n:
                    v_ahead = int(order[ahead])
                    stats.prefetches += (int(degs[v_ahead]) + 1) * self.prefetch_lines
            local = block_start - chunk.start
            if a_rows is not None:
                a_rows[local : local + count] = scratch
            # Update phase of the block (Alg. 2 lines 8-10): small GEMM.
            h_rows[local : local + count] = self.params.apply(scratch[:count])
        idx = order[chunk.start : chunk.stop]
        writes: ChunkWrites = {"h_out": (idx, h_rows)}
        if a_rows is not None:
            writes["a"] = (idx, a_rows)
        return writes, stats

    def _run_chunk_batched(self, chunk: Chunk) -> Tuple[ChunkWrites, KernelStats]:
        """Per-block segment-reduce + GEMM, same counters as the loop."""
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
            # Aggregation phase of the block (Alg. 2 lines 3-7), batched.
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
