"""JIT kernel specialization — the xbyak role (Section 4.1).

The paper tailors the aggregation inner loop to each layer's feature
length with a JIT assembler: specialized kernels use layer constants,
avoid bounds checks, and are generated once per model because "the code
is tailored to the model but not the data".

In Python the analogous move is generating a :class:`BatchedKernel`
specialized to ``(feature_len, aggregator)``: it binds the ψ factor
arrays and the vector width once, and the cache guarantees the
one-compilation-per-spec amortization the paper relies on.

Two specializations exist per spec, generated by one builder so
forward and backward share their numerics structure exactly:

* ``specialize`` — one call aggregates a whole array of vertices through
  the layout's :class:`~repro.kernels.segment.ScaledCSR` operator: the
  operator itself for a whole pass, a memoised row slice when the
  vertices are a contiguous range, a row select otherwise — Alg. 1's
  vector lanes as one fused sparse-dense product instead of a
  Python-level inner loop.
* ``specialize_backward`` — the same kernel over the *transposed*
  adjacency (the graph's cached CSC view), computing rows of
  ``grad_h = Âᵀ grad_a``.  The ψ factors are the forward layout's edge
  factors permuted into the transposed edge layout, so the backward
  layout reuses the forward arrays instead of recomputing them.

:meth:`JitKernelCache.live_layout` restricts the transposed layout to
the edges whose source row is *live* — the rows of a loss mask, the only
ones the last layer's gradient is not zero on.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..nn.aggregate import normalization_factors
from .segment import ScaledCSR


@dataclass(frozen=True)
class KernelSpec:
    """The model-dependent constants a specialized kernel binds."""

    feature_len: int
    aggregator: str

    def __post_init__(self) -> None:
        if self.feature_len <= 0:
            raise ValueError(f"feature_len must be positive, got {self.feature_len}")


class BatchedKernel:
    """The specialized aggregation over one CSR layout.

    Binds the layout's :class:`~repro.kernels.segment.ScaledCSR`
    ``operator`` and the feature length — the layer-specific constants an
    xbyak kernel would embed as immediates.  ``operator(h)`` is the whole
    pass in one call, and ``operator.rows(lo, hi)`` one lane's or one
    fused block's share of it; calling the kernel computes
    ``h[verts] * ψ_self + segment_sum(h[nbrs] * ψ_edge)`` for a vertex
    array ``verts``:

    * a *contiguous* range (the caller says so) is a row slice of the
      operator, built on first use and memoised, so steady-state epochs
      pay zero sparse-construction overhead;
    * any other vertex set is a row select of the same operator, which
      reduces each row exactly as the slice does.
    """

    def __init__(self, operator: ScaledCSR, feature_len: int) -> None:
        self.operator = operator
        self.feature_len = feature_len

    def __call__(
        self, h: np.ndarray, verts: np.ndarray, contiguous: bool = False
    ) -> np.ndarray:
        if h.shape[1] != self.feature_len:
            raise ValueError(
                f"kernel specialized for {self.feature_len} features, "
                f"got {h.shape[1]}"
            )
        verts = np.asarray(verts, dtype=np.int64)
        if contiguous and len(verts):
            v0 = int(verts[0])
            return self.operator.rows(v0, v0 + len(verts))(h)
        return self.operator.select(verts, h)


class JitKernelCache:
    """Compile-once cache of specialized aggregation kernels.

    ``specialize`` and ``specialize_backward`` return
    :class:`BatchedKernel` objects; ``compilations`` (and ``len``) count
    the specs generated — one per (graph, direction, width, aggregator)
    — and repeated requests for the same spec on the same graph are
    cache hits, matching the paper's claim that codegen overhead is
    amortized over the run.  The ψ layout a spec wraps depends on
    the data, not the width, so it is built once per (graph, direction,
    aggregator) and shared by every width: the forward layout from
    :func:`normalization_factors`, the transposed one from the graph's
    CSC view with the forward edge factors permuted into it.

    Entries are keyed by the graph's :meth:`CSRGraph.cache_token` — not
    ``id(graph)``, which the allocator recycles: a look-alike graph
    allocated at a dead graph's address must never inherit its ψ-factor
    arrays.  A weakref callback on the token evicts the dead graph's
    kernels and layouts before its token id can be reused.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple[int, bool, int, str], BatchedKernel] = {}
        self._layouts: Dict[Tuple[int, bool, str], ScaledCSR] = {}
        #: (graph, aggregator) -> (the live mask it was built for, a
        #: private copy; the restricted transposed layout).
        self._live: Dict[Tuple[int, str], Tuple[np.ndarray, ScaledCSR]] = {}
        self._tokens: Dict[int, "weakref.ref"] = {}
        self.compilations = 0

    def __len__(self) -> int:
        return len(self._cache)

    def _graph_key(self, graph: CSRGraph) -> int:
        token = graph.cache_token()
        tid = id(token)
        if tid not in self._tokens:
            # The callback reaches the cache through a weakref: closing
            # over ``self`` would make cache -> _tokens -> ref -> callback
            # -> cache a cycle, and a dropped kernel (with every operator
            # it compiled) would wait for the cycle collector.
            cache_ref = weakref.ref(self)

            def evict(_ref, tid=tid):
                cache = cache_ref()
                if cache is not None:
                    cache._evict(tid)

            self._tokens[tid] = weakref.ref(token, evict)
        return tid

    def _evict(self, tid: int) -> None:
        """Drop every kernel and layout of a dead graph (weakref callback)."""
        self._tokens.pop(tid, None)
        for entries in (self._cache, self._layouts, self._live):
            for key in [key for key in entries if key[0] == tid]:
                del entries[key]

    def _layout(
        self, tid: int, graph: CSRGraph, backward: bool, aggregator: str
    ) -> ScaledCSR:
        """The ψ-scaled operator of ``Â`` (or ``Âᵀ``), built once."""
        key = (tid, backward, aggregator)
        layout = self._layouts.get(key)
        if layout is None:
            n = graph.num_vertices
            if backward:
                # Â = S + diag(ψ_self), so Âᵀ = Sᵀ + diag(ψ_self): the
                # self factors carry over and the edge factors move into
                # the transposed edge layout.
                forward = self._layout(tid, graph, False, aggregator)
                t_indptr, t_indices, t_perm = graph.csc_arrays()
                layout = ScaledCSR.from_csr(
                    t_indptr, t_indices, forward.matrix.data[t_perm],
                    forward.self_factors, n,
                )
            else:
                layout = ScaledCSR.from_csr(
                    graph.indptr, graph.indices,
                    *normalization_factors(graph, aggregator), n,
                )
            self._layouts[key] = layout
        return layout

    def _lookup(
        self, graph: CSRGraph, spec: KernelSpec, backward: bool
    ) -> BatchedKernel:
        tid = self._graph_key(graph)
        key = (tid, backward, spec.feature_len, spec.aggregator)
        kernel = self._cache.get(key)
        if kernel is None:
            layout = self._layout(tid, graph, backward, spec.aggregator)
            kernel = BatchedKernel(layout, spec.feature_len)
            self._cache[key] = kernel
            self.compilations += 1
        return kernel

    def specialize(self, graph: CSRGraph, spec: KernelSpec) -> BatchedKernel:
        """Closure computing rows of ``Â h`` for ``spec`` on ``graph``."""
        return self._lookup(graph, spec, backward=False)

    def specialize_backward(self, graph: CSRGraph, spec: KernelSpec) -> BatchedKernel:
        """Closure computing rows of ``Âᵀ grad_a`` over the cached CSC view."""
        return self._lookup(graph, spec, backward=True)

    def live_layout(
        self, graph: CSRGraph, aggregator: str, live: np.ndarray
    ) -> ScaledCSR:
        """``Âᵀ`` restricted to the edges out of ``live`` rows.

        For a ``grad_a`` that is exactly zero off ``live`` this operator
        computes exactly ``Âᵀ grad_a``: every dropped edge would have
        added ``ψ · 0``, and each kept row keeps its edge order.  The
        self terms stay (``nnz_live + V`` gathers).  Built in one O(E)
        pass over the transposed layout — each row's count is a
        difference of the cumulative sum of ``live[indices]`` — once per
        (graph, aggregator, mask): a private copy of the mask is compared
        on every call, so a mask edited in place is never served a
        stale layout, and one edited back to the same values builds
        nothing.
        """
        live = np.asarray(live)
        if live.dtype != np.bool_ or live.shape != (graph.num_vertices,):
            raise ValueError(
                f"live must be a 1-D bool array of {graph.num_vertices} "
                f"entries, got dtype {live.dtype} and shape {live.shape}"
            )
        tid = self._graph_key(graph)
        key = (tid, aggregator)
        kept = self._live.get(key)
        if kept is not None and np.array_equal(kept[0], live):
            return kept[1]
        transposed = self._layout(tid, graph, True, aggregator)
        full = transposed.matrix
        keep = np.take(live, full.indices)
        counts = np.zeros(len(keep) + 1, dtype=full.indptr.dtype)
        np.cumsum(keep, out=counts[1:])
        # ``take`` at the kept positions: a boolean index of the same
        # arrays runs several times slower.
        kept = np.flatnonzero(keep)
        layout = ScaledCSR.from_csr(
            counts[full.indptr], np.take(full.indices, kept),
            np.take(full.data, kept), transposed.self_factors, graph.num_vertices,
        )
        self._live[key] = (live.copy(), layout)
        return layout
