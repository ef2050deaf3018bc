"""Algorithm 1: parallel vectorized aggregation with software prefetch.

The paper's ``basic`` kernel:

* output-parallelizes over chunks of ``T`` vertices (no synchronization —
  each task owns a disjoint slice of ``a``),
* dynamically schedules chunks to balance power-law degree skew,
* issues a software prefetch for the vertex ``D`` positions ahead,
  restricted to the first two cache lines of each feature vector because
  the L1 fill buffers are usually full (Section 4.1),
* runs a JIT-specialized inner kernel per layer spec.

With several workers the chunk loop executes on
:class:`repro.parallel.ChunkExecutor`.  A pass on one worker — the
default — has nobody to hand chunks to, so it is ONE call of the
layout's :class:`~repro.kernels.segment.ScaledCSR` operator whatever
the Section 4.4 processing order (the operator is row-sequential, so the
order changes no row), split into one zero-copy row slice per core
(:func:`repro.lanes.split`) when the pass is big enough, and its
counters come from the closed forms of (graph, order, kernel
parameters) the chunk loop would have summed to.
Every path is bitwise equivalent — each vertex row is accumulated by the
same operator in the same edge order whichever worker, chunk or call
produces it.  The backward pass is the same over the transposed
adjacency.
"""

from __future__ import annotations

import time
import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from .. import lanes
from ..graphs.csr import CSRGraph
from ..obs import get_metrics, get_tracer, publish_counters
from .base import AggregationKernel, KernelStats, validate_inputs, validate_order
from .jit import BatchedKernel, JitKernelCache, KernelSpec
from ..parallel.executor import ChunkExecutor, ExecutionReport, WorkerReport
from ..parallel.plan import build_chunk_plan
from ..parallel.workload import BackwardAggregationWorkload, BasicAggregationWorkload

#: Default task size T (vertices per parallel task).
DEFAULT_TASK_SIZE = 64

#: Default prefetch distance D (vertices ahead).
DEFAULT_PREFETCH_DISTANCE = 4

#: Cache lines prefetched per feature vector (Section 4.1: "we empirically
#: choose to prefetch only the first two cache lines").
PREFETCH_LINES_PER_VECTOR = 2


class BasicKernel(AggregationKernel):
    """The Graphite ``basic`` aggregation of Algorithm 1."""

    def __init__(
        self,
        task_size: int = DEFAULT_TASK_SIZE,
        prefetch_distance: int = DEFAULT_PREFETCH_DISTANCE,
        jit_cache: Optional[JitKernelCache] = None,
        executor: Optional[ChunkExecutor] = None,
    ) -> None:
        if task_size <= 0:
            raise ValueError(f"task_size must be positive, got {task_size}")
        if prefetch_distance < 0:
            raise ValueError("prefetch_distance must be >= 0")
        self.task_size = task_size
        self.prefetch_distance = prefetch_distance
        self.jit_cache = jit_cache or JitKernelCache()
        self.executor = executor or ChunkExecutor()
        self.last_report: Optional[ExecutionReport] = None
        #: (token id, transposed) -> (token weakref, natural order, plan).
        #: Training calls the kernel every layer every epoch with the
        #: default order; rebuilding the identical plan each time is pure
        #: overhead.  Keyed like the JIT cache: the weakref guards against
        #: a look-alike token allocated at a dead token's address.
        self._plan_cache: Dict[
            Tuple[int, bool], Tuple["weakref.ref", np.ndarray, object]
        ] = {}

    name = "basic"

    def _natural_plan(self, graph: CSRGraph, transposed: bool = False):
        """(natural order, chunk plan), memoized per live graph."""
        token = graph.cache_token()
        key = (id(token), transposed)
        hit = self._plan_cache.get(key)
        if hit is not None and hit[0]() is token:
            return hit[1], hit[2]
        order = np.arange(graph.num_vertices, dtype=np.int64)
        base = graph.transpose() if transposed else graph
        plan = build_chunk_plan(base, self.task_size)
        self._plan_cache[key] = (weakref.ref(token), order, plan)
        return order, plan

    def aggregate(
        self,
        graph: CSRGraph,
        h: np.ndarray,
        aggregator: str = "gcn",
        order: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, KernelStats]:
        """Aggregate all vertices, optionally in a custom processing order.

        ``order`` is the Section 4.4 hook: kernels walk ``order`` while the
        output stays indexed by original vertex id.
        """
        return self._run(graph, h, aggregator, order, transposed=False)

    def aggregate_backward(
        self,
        graph: CSRGraph,
        grad_a: np.ndarray,
        aggregator: str = "gcn",
        order: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, KernelStats]:
        """Backward aggregation ``grad_h = Âᵀ grad_a``, chunk-parallel.

        The mirror of :meth:`aggregate` over the transposed adjacency:
        the chunk plan balances the *transposed* degrees and the JIT
        cache supplies the backward specialization (a closure over the
        graph's cached CSC view).
        """
        return self._run(graph, grad_a, aggregator, order, transposed=True)

    def _run(
        self,
        graph: CSRGraph,
        h: np.ndarray,
        aggregator: str,
        order: Optional[np.ndarray],
        transposed: bool,
    ) -> Tuple[np.ndarray, KernelStats]:
        validate_inputs(graph, h)
        validate_order(graph, order)
        compiled_before = self.jit_cache.compilations
        spec = KernelSpec(feature_len=h.shape[1], aggregator=aggregator)
        if transposed:
            name = "kernel.backward.basic"
            batched = self.jit_cache.specialize_backward(graph, spec)
        else:
            name = "kernel.basic"
            batched = self.jit_cache.specialize(graph, spec)
        executor = self.executor
        with get_tracer().span(
            name,
            aggregator=aggregator,
            vertices=graph.num_vertices,
            edges=graph.num_edges,
            features=int(h.shape[1]),
            workers=executor.workers,
        ) as span:
            if executor.workers == 1:
                out, stats = self._run_single_call(
                    graph, h, order, batched, transposed
                )
            else:
                out, stats = self._run_chunked(
                    graph, h, aggregator, order, batched, transposed
                )
            stats.jit_compilations = self.jit_cache.compilations - compiled_before
            stats.flops = 2.0 * stats.gathers * h.shape[1]
            span.add_counters(stats.as_dict())
        publish_counters(get_metrics(), name, stats.as_dict(False))
        return out, stats

    def _run_single_call(
        self,
        graph: CSRGraph,
        h: np.ndarray,
        order: Optional[np.ndarray],
        batched: BatchedKernel,
        transposed: bool,
    ) -> Tuple[np.ndarray, KernelStats]:
        """The whole pass as one operator call, in any processing order.

        The call is cut into one contiguous row slice per lane; a row
        slice views the operator's arrays, and every output row is
        reduced exactly as the whole operator reduces it.  No chunk plan
        or workload is built: the counters the chunk loop accumulates
        are a pure function of (graph, order, kernel parameters), so
        they are stated here in closed form — ``E + V`` gathers,
        ``ceil(V / T)`` tasks, and one prefetch per gather of every
        position with a vertex ``D`` behind it.  Only the prefetch count
        depends on the order.
        """
        start = time.perf_counter()
        operator = batched.operator
        n = graph.num_vertices
        # The ψ factors are fp32, so this is the product's own dtype.
        out = np.empty((n, h.shape[1]), np.result_type(h.dtype, np.float32))
        lanes.split(
            n,
            (operator.nnz + n) * h.shape[1] * h.itemsize + out.nbytes,
            lambda lo, hi: operator.rows(lo, hi)(h, out=out[lo:hi]),
        )
        wall_time = time.perf_counter() - start
        tasks = -(-n // self.task_size)
        stats = KernelStats(
            gathers=graph.num_edges + n,
            tasks=tasks,
            extra={
                "workers": 1.0,
                "wall_time_s": wall_time,
                "worker0_chunks": float(tasks),
            },
        )
        if self.prefetch_distance:
            degrees = (
                np.diff(graph.csc_arrays()[0]) if transposed else graph.degrees()
            )
            if order is not None:
                degrees = degrees[order]
            ahead = degrees[self.prefetch_distance:]
            stats.prefetches = PREFETCH_LINES_PER_VECTOR * int(
                ahead.sum() + len(ahead)
            )
        # The one worker did all of it: its report shares the pass's stats.
        worker = WorkerReport(0, tasks, n, wall_time, stats)
        self.last_report = ExecutionReport(1, wall_time, [worker])
        return out, stats

    def _run_chunked(
        self,
        graph: CSRGraph,
        h: np.ndarray,
        aggregator: str,
        order: Optional[np.ndarray],
        batched: BatchedKernel,
        transposed: bool,
    ) -> Tuple[np.ndarray, KernelStats]:
        """The chunk loop on the executor's several workers."""
        if order is None:
            order, plan = self._natural_plan(graph, transposed)
        else:
            base = graph.transpose() if transposed else graph
            plan = build_chunk_plan(base, self.task_size, order)
        workload_type = (
            BackwardAggregationWorkload if transposed else BasicAggregationWorkload
        )
        workload = workload_type(
            graph,
            h,
            aggregator,
            order,
            prefetch_distance=self.prefetch_distance,
            prefetch_lines=PREFETCH_LINES_PER_VECTOR,
        )
        workload.attach_batched(batched)
        outputs, stats, self.last_report = self.executor.run(workload, plan)
        return outputs["out"], stats
