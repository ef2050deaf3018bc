"""Algorithm 1: parallel vectorized aggregation with software prefetch.

The paper's ``basic`` kernel:

* output-parallelizes over chunks of ``T`` vertices (no synchronization —
  each task owns a disjoint slice of ``a``),
* dynamically schedules chunks to balance power-law degree skew,
* issues a software prefetch for the vertex ``D`` positions ahead,
  restricted to the first two cache lines of each feature vector because
  the L1 fill buffers are usually full (Section 4.1),
* runs a JIT-specialized inner kernel per layer spec.

A pass is ONE call of the layout's
:class:`~repro.kernels.segment.ScaledCSR` operator whatever the Section
4.4 processing order (the operator is row-sequential, so the order
changes no row), split into one zero-copy row slice per core
(:func:`repro.lanes.split`) when the pass is big enough: the paper's
output-parallel loop at its coarsest.  Every lane count is bitwise
equivalent — each vertex row is accumulated by the same operator in the
same edge order whichever lane produces it.  The counters are closed
forms of (graph, order, kernel parameters): ``T`` and ``D`` define what
Alg. 1 would count, not how the pass runs.  The backward pass is the
same over the transposed adjacency.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from .. import lanes
from ..graphs.csr import CSRGraph
from ..obs import get_metrics, get_tracer, publish_counters
from .base import AggregationKernel, KernelStats, validate_inputs, validate_order
from .jit import JitKernelCache, KernelSpec
from .segment import ScaledCSR

#: Default task size T (vertices per parallel task).
DEFAULT_TASK_SIZE = 64

#: Default prefetch distance D (vertices ahead).
DEFAULT_PREFETCH_DISTANCE = 4

#: Cache lines prefetched per feature vector (Section 4.1: "we empirically
#: choose to prefetch only the first two cache lines").
PREFETCH_LINES_PER_VECTOR = 2


def prefetch_count(
    degrees: np.ndarray, order: Optional[np.ndarray], distance: int
) -> int:
    """Alg. 1 line 9's prefetches over a whole pass, in closed form.

    Every position with a vertex ``distance`` behind it prefetches the
    ``deg + 1`` vectors it will gather, two cache lines each.  Only this
    counter depends on the processing order.
    """
    if not distance:
        return 0
    if order is not None:
        degrees = degrees[order]
    ahead = degrees[distance:]
    return PREFETCH_LINES_PER_VECTOR * int(ahead.sum() + len(ahead))


def aggregate_rows(operator: ScaledCSR, h: np.ndarray) -> np.ndarray:
    """``operator(h)`` cut into one contiguous row slice per lane.

    A row slice views the operator's arrays, and every output row is
    reduced exactly as the whole operator reduces it.
    """
    n = operator.num_rows
    # The ψ factors are fp32, so this is the product's own dtype.
    out = np.empty((n, h.shape[1]), np.result_type(h.dtype, np.float32))
    lanes.split(
        n,
        (operator.nnz + n) * h.shape[1] * h.itemsize + out.nbytes,
        lambda lo, hi: operator.rows(lo, hi)(h, out=out[lo:hi]),
    )
    return out


class BasicKernel(AggregationKernel):
    """The Graphite ``basic`` aggregation of Algorithm 1."""

    def __init__(
        self,
        task_size: int = DEFAULT_TASK_SIZE,
        prefetch_distance: int = DEFAULT_PREFETCH_DISTANCE,
        jit_cache: Optional[JitKernelCache] = None,
    ) -> None:
        if task_size <= 0:
            raise ValueError(f"task_size must be positive, got {task_size}")
        if prefetch_distance < 0:
            raise ValueError("prefetch_distance must be >= 0")
        self.task_size = task_size
        self.prefetch_distance = prefetch_distance
        self.jit_cache = jit_cache or JitKernelCache()

    name = "basic"

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
        live: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, KernelStats]:
        """Backward aggregation ``grad_h = Âᵀ grad_a``.

        The mirror of :meth:`aggregate` over the transposed adjacency:
        the JIT cache supplies the backward specialization (a closure
        over the graph's cached CSC view) and the prefetch count walks
        the *transposed* degrees.  ``live`` (a boolean row mask outside
        which ``grad_a`` is exactly zero) gathers only those rows: the
        pass runs the cache's
        :meth:`~repro.kernels.jit.JitKernelCache.live_layout`, counts
        ``nnz_live + V`` gathers and is bitwise the full result.
        """
        return self._run(graph, grad_a, aggregator, order, transposed=True, live=live)

    def _run(
        self,
        graph: CSRGraph,
        h: np.ndarray,
        aggregator: str,
        order: Optional[np.ndarray],
        transposed: bool,
        live: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, KernelStats]:
        validate_inputs(graph, h)
        validate_order(graph, order)
        compiled_before = self.jit_cache.compilations
        spec = KernelSpec(feature_len=h.shape[1], aggregator=aggregator)
        if transposed:
            name = "kernel.backward.basic"
            operator = self.jit_cache.specialize_backward(graph, spec).operator
            if live is not None:
                operator = self.jit_cache.live_layout(graph, aggregator, live)
        else:
            name = "kernel.basic"
            operator = self.jit_cache.specialize(graph, spec).operator
        n = graph.num_vertices
        with get_tracer().span(
            name,
            aggregator=aggregator,
            vertices=n,
            edges=graph.num_edges,
            features=int(h.shape[1]),
        ) as span:
            start = time.perf_counter()
            out = aggregate_rows(operator, h)
            wall_time = time.perf_counter() - start
            degrees = (
                np.diff(operator.matrix.indptr) if transposed else graph.degrees()
            )
            stats = KernelStats(
                gathers=operator.nnz + n,
                tasks=-(-n // self.task_size),
                prefetches=prefetch_count(degrees, order, self.prefetch_distance),
                jit_compilations=self.jit_cache.compilations - compiled_before,
                flops=2.0 * (operator.nnz + n) * h.shape[1],
                extra={"wall_time_s": wall_time},
            )
            span.add_counters(stats.as_dict())
        publish_counters(get_metrics(), name, stats.as_dict(False))
        return out, stats
