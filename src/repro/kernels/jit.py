"""JIT kernel specialization — the xbyak role (Section 4.1).

The paper tailors the aggregation inner loop to each layer's feature
length with a JIT assembler: specialized kernels use layer constants,
avoid bounds checks, and are generated once per model because "the code
is tailored to the model but not the data".

In Python the analogous move is specializing the aggregation to
``(feature_len, aggregator)``: the cache binds the ψ factor arrays into
a :class:`~repro.kernels.segment.ScaledCSR` operator once and guarantees
the one-compilation-per-spec amortization the paper relies on.  Two
specializations exist per spec, built by one builder so forward and
backward share their numerics structure exactly:

* ``specialize`` — the operator computing ``Â h``: one call is the
  whole pass (Alg. 1's vector lanes as one fused sparse-dense product
  instead of a Python-level inner loop), and ``operator.rows(lo, hi)``
  one lane's share of it;
* ``specialize_backward`` — the same over the *transposed* adjacency,
  computing ``grad_h = Âᵀ grad_a``.

Every transposed layout is built from the forward layout by
:func:`transposed_layout`, never from the graph's CSC view: the whole
transpose, or (:meth:`JitKernelCache.live_layout`) only the edges out of
the *live* rows of a loss mask, the only ones the last layer's gradient
is not zero on — so a masked training run never builds the graph-wide
transpose.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import sparse

from ..graphs.csr import CSRGraph
from ..nn.aggregate import normalization_factors
from .segment import ScaledCSR


def transposed_layout(
    forward: ScaledCSR, live: Optional[np.ndarray] = None
) -> ScaledCSR:
    """``Âᵀ`` restricted to the edges out of ``live`` rows (all if ``None``).

    ``Â = S + diag(ψ_self)``, so ``Âᵀ = Sᵀ + diag(ψ_self)``: the live
    forward rows go through one counting transpose (scipy's
    ``csr_tocsc``, no sort) carrying each edge's ordinal, the edge
    factors are taken at the carried ordinals and the self factors carry
    over.  Each row keeps the full transpose's edge order, so for a
    ``grad_a`` exactly zero off ``live`` the product is bitwise
    ``Âᵀ grad_a``: a dropped edge would have added ``ψ · 0``.
    """
    matrix = forward.matrix
    n = matrix.shape[0]
    # scipy's index dtype holds ``nnz``: int32 below 2**31 edges.
    ordinal = matrix.indptr.dtype
    if live is None:
        indptr, indices = matrix.indptr, matrix.indices
        ordinals = np.arange(matrix.nnz, dtype=ordinal)
    else:
        degrees = np.diff(matrix.indptr)
        ordinals = np.flatnonzero(np.repeat(live, degrees)).astype(ordinal)
        indptr = np.zeros(n + 1, dtype=ordinal)
        np.cumsum(np.where(live, degrees, 0), out=indptr[1:])
        indices = np.take(matrix.indices, ordinals)
    csc = sparse.csr_matrix((ordinals, indices, indptr), shape=(n, n)).tocsc()
    return ScaledCSR.from_csr(
        csc.indptr, csc.indices, np.take(matrix.data, csc.data),
        forward.self_factors, n,
    )


@dataclass(frozen=True)
class KernelSpec:
    """The model-dependent constants a specialized kernel binds."""

    feature_len: int
    aggregator: str

    def __post_init__(self) -> None:
        if self.feature_len <= 0:
            raise ValueError(f"feature_len must be positive, got {self.feature_len}")


class JitKernelCache:
    """Compile-once cache of specialized aggregation kernels.

    ``specialize`` and ``specialize_backward`` return the spec's
    :class:`~repro.kernels.segment.ScaledCSR` operator; ``compilations``
    (and ``len``) count the specs generated — one per (graph, direction,
    width, aggregator) — and repeated requests for the same spec on the same graph are
    cache hits, matching the paper's claim that codegen overhead is
    amortized over the run.  The ψ layout a spec wraps depends on
    the data, not the width, so it is built once per (graph, direction,
    aggregator) and shared by every width: the forward layout from
    :func:`normalization_factors`, the transposed one from the forward
    layout by :func:`transposed_layout`.

    Entries are keyed by the graph's :meth:`CSRGraph.cache_token` — not
    ``id(graph)``, which the allocator recycles: a look-alike graph
    allocated at a dead graph's address must never inherit its ψ-factor
    arrays.  A weakref callback on the token evicts the dead graph's
    specs and layouts before its token id can be reused.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple[int, bool, int, str], ScaledCSR] = {}
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
            if backward:
                layout = transposed_layout(
                    self._layout(tid, graph, False, aggregator)
                )
            else:
                layout = ScaledCSR.from_csr(
                    graph.indptr, graph.indices,
                    *normalization_factors(graph, aggregator), graph.num_vertices,
                )
            self._layouts[key] = layout
        return layout

    def _lookup(
        self, graph: CSRGraph, spec: KernelSpec, backward: bool
    ) -> ScaledCSR:
        tid = self._graph_key(graph)
        key = (tid, backward, spec.feature_len, spec.aggregator)
        operator = self._cache.get(key)
        if operator is None:
            operator = self._layout(tid, graph, backward, spec.aggregator)
            self._cache[key] = operator
            self.compilations += 1
        return operator

    def specialize(self, graph: CSRGraph, spec: KernelSpec) -> ScaledCSR:
        """The operator computing ``Â h`` for ``spec`` on ``graph``."""
        return self._lookup(graph, spec, backward=False)

    def specialize_backward(self, graph: CSRGraph, spec: KernelSpec) -> ScaledCSR:
        """The operator computing ``Âᵀ grad_a`` for ``spec`` on ``graph``."""
        return self._lookup(graph, spec, backward=True)

    def live_layout(
        self, graph: CSRGraph, aggregator: str, live: np.ndarray
    ) -> ScaledCSR:
        """``Âᵀ`` restricted to the edges out of ``live`` rows.

        ``nnz_live + V`` gathers; the full transposed layout is never
        built, and ``compilations`` does not count this one.  Built once
        per (graph, aggregator, mask): a private copy of the mask is
        compared on every call, so a mask edited in place is never
        served a stale layout, and one edited back to the same values
        builds nothing.
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
        layout = transposed_layout(
            self._layout(tid, graph, False, aggregator), live
        )
        self._live[key] = (live.copy(), layout)
        return layout
