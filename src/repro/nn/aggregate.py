"""Reference aggregation numerics — Eq. 1 and Table 2 of the paper.

Both evaluated models reduce each vertex's neighborhood (including the
vertex itself) with a per-neighbor scale factor ψ:

* GCN:        a_v = Σ  h_u / sqrt(D̂_v · D̂_u)   over u ∈ N(v) ∪ {v}
* SAGE-mean:  a_v = Σ  h_u / (D_v + 1)          over u ∈ N(v) ∪ {v}

where ``D̂ = D + 1`` counts the self edge so isolated vertices stay
well-defined (the standard renormalization-trick reading of Table 2).

These routines are the *value plane* oracle: every optimized kernel in
:mod:`repro.kernels` must reproduce their output bit-for-bit up to fp32
reduction-order noise.  They also expose the factor arrays that the DMA
engine's ``FACTOR`` descriptor field consumes (Section 5.1).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from ..graphs.csr import CSRGraph

#: Aggregators the library (and the DMA engine's bin_op/red_op) support.
AGGREGATORS = ("gcn", "mean", "sum")

#: Accepted spellings that map onto a canonical aggregator.
AGGREGATOR_ALIASES = {"sage-mean": "mean"}

#: Edges per block of :func:`normalization_factors`' fp64 scratch.
_FACTOR_BLOCK_EDGES = 1 << 16


def canonical_aggregator(aggregator: str) -> str:
    """Resolve aliases (``sage-mean`` -> ``mean``) to canonical names."""
    return AGGREGATOR_ALIASES.get(aggregator, aggregator)


def normalization_factors(graph: CSRGraph, aggregator: str) -> Tuple[np.ndarray, np.ndarray]:
    """Per-edge and per-self factor arrays for an aggregator.

    Returns:
        (edge_factors, self_factors): ``edge_factors`` is aligned with
        ``graph.indices`` (one scale per gathered neighbor, the layout the
        DMA ``FACTOR`` pointer expects — Figure 9b), ``self_factors`` has
        one scale per vertex for the implicit self edge.

    The fp64 arithmetic runs one block of rows (about
    :data:`_FACTOR_BLOCK_EDGES` edges) at a time on a block-sized
    scratch, so the only ``E``-long array is the fp32 result.
    """
    aggregator = canonical_aggregator(aggregator)
    if aggregator not in AGGREGATORS:
        raise ValueError(f"unknown aggregator {aggregator!r}; choose from {AGGREGATORS}")
    if aggregator == "sum":
        return (np.ones(graph.num_edges, dtype=np.float32),
                np.ones(graph.num_vertices, dtype=np.float32))
    d_hat = graph.self_loop_degrees()
    degrees, indptr = graph.degrees(), graph.indptr
    edge = np.empty(graph.num_edges, dtype=np.float32)
    row = 0
    while row < graph.num_vertices:
        # The rows starting within one block of this one (at least one).
        stop = max(row + 1, int(np.searchsorted(
            indptr, indptr[row] + _FACTOR_BLOCK_EDGES, side="right")) - 1)
        lo, hi = indptr[row], indptr[stop]
        scratch = np.repeat(d_hat[row:stop], degrees[row:stop])
        if aggregator == "gcn":
            scratch *= d_hat[graph.indices[lo:hi]]
            np.sqrt(scratch, out=scratch)
        np.divide(1.0, scratch, out=scratch)
        edge[lo:hi] = scratch
        row = stop
    return edge, (1.0 / d_hat).astype(np.float32)


def normalized_adjacency(graph: CSRGraph, aggregator: str) -> sp.csr_matrix:
    """Â = the (self-loop augmented, ψ-scaled) adjacency as scipy CSR.

    ``aggregate(...) == Â @ h`` for the linear aggregators — this is the
    SpMM formulation the MKL baseline uses (Section 6).
    """
    edge, self_f = normalization_factors(graph, aggregator)
    n = graph.num_vertices
    adj = sp.csr_matrix((edge, graph.indices, graph.indptr), shape=(n, n))
    return (adj + sp.diags(self_f)).tocsr()


def aggregate(graph: CSRGraph, h: np.ndarray, aggregator: str = "gcn") -> np.ndarray:
    """Eq. 1 — the reference aggregation, in its SpMM formulation."""
    if h.shape[0] != graph.num_vertices:
        raise ValueError(
            f"feature rows {h.shape[0]} != num_vertices {graph.num_vertices}"
        )
    a_hat = normalized_adjacency(graph, aggregator)
    return (a_hat @ h).astype(np.result_type(h.dtype, np.float32), copy=False)


def aggregate_backward(
    graph: CSRGraph, grad_a: np.ndarray, aggregator: str = "gcn"
) -> np.ndarray:
    """Gradient of the linear aggregation w.r.t. the input features.

    ``a = Â h`` implies ``dL/dh = Â^T dL/da``.  This is the vectorized
    *fallback* (one transpose-SpMM, rebuilding Â per call); training on
    an optimized kernel routes through the cached transposed layout
    instead (:meth:`repro.kernels.BasicKernel.aggregate_backward`).
    """
    a_hat = normalized_adjacency(graph, aggregator)
    return (a_hat.T @ grad_a).astype(
        np.result_type(grad_a.dtype, np.float32), copy=False
    )


def aggregate_backward_reference(
    graph: CSRGraph, grad_a: np.ndarray, aggregator: str = "gcn"
) -> np.ndarray:
    """Scalar-loop backward aggregation — the independent second oracle.

    Walks every forward edge once and scatters ``ψ_e * grad_a[dst]``
    onto the edge's source (plus the ψ-scaled self term), accumulating
    in float64: exactly ``Âᵀ grad_a`` with no sparse library involved.
    The differential gradient suite pins every optimized backward
    engine against this.
    """
    edge, self_f = normalization_factors(graph, aggregator)
    out = np.zeros_like(grad_a, dtype=np.float64)
    for v in range(graph.num_vertices):
        start, end = graph.indptr[v], graph.indptr[v + 1]
        for pos in range(start, end):
            out[graph.indices[pos]] += (
                grad_a[v].astype(np.float64) * edge[pos]
            )
        out[v] += grad_a[v].astype(np.float64) * self_f[v]
    return out.astype(np.result_type(grad_a.dtype, np.float32))


def gather_reduce_reference(
    graph: CSRGraph, h: np.ndarray, aggregator: str = "gcn"
) -> np.ndarray:
    """Scalar-loop aggregation mirroring Algorithm 1's data flow exactly.

    Slower than :func:`aggregate` but structured like the kernels: per
    vertex, gather each neighbor row, scale by ψ, reduce.  Used in tests as
    an independent second oracle.
    """
    edge, self_f = normalization_factors(graph, aggregator)
    out = np.zeros_like(h, dtype=np.float64)
    for v in range(graph.num_vertices):
        start, end = graph.indptr[v], graph.indptr[v + 1]
        for pos in range(start, end):
            out[v] += h[graph.indices[pos]].astype(np.float64) * edge[pos]
        out[v] += h[v].astype(np.float64) * self_f[v]
    return out.astype(np.float32)
