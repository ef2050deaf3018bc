"""Compressed sparse row (CSR) graph representation.

The paper stores the adjacency matrix in CSR (Section 2.2): for ``|V|``
vertices and ``|E|`` edges the footprint is ``O(|V| + |E|)`` instead of
``O(|V|^2)``.  Aggregation for vertex ``v`` reads the slice
``indices[indptr[v]:indptr[v + 1]]`` — exactly the data highlighted in
Figure 9b of the paper.

Edges are stored in the *in-neighbor* direction: ``neighbors(v)`` returns
the vertices whose features ``v`` gathers during aggregation.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp


class GraphError(ValueError):
    """Raised when a graph is structurally invalid."""


class GraphToken:
    """Weakref-able identity token; lives exactly as long as its graph.

    Caches that specialize per graph (e.g. the JIT kernel cache) key on
    this token's id instead of ``id(graph)``: the graph holds the only
    strong reference, so the token dies with the graph and a weakref
    callback can evict stale entries *before* the id can be recycled by
    a look-alike graph allocated at the same address.
    """

    __slots__ = ("__weakref__",)


@dataclass
class CSRGraph:
    """An immutable directed graph in CSR form.

    Attributes:
        indptr: int64 array of length ``num_vertices + 1``; row pointers.
        indices: int64 array of length ``num_edges``; column indices, i.e.
            the in-neighbors each vertex aggregates from.
        name: optional human-readable dataset name.
    """

    indptr: np.ndarray
    indices: np.ndarray
    name: str = "graph"
    _degrees: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _self_loop_degrees: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _token: Optional[GraphToken] = field(default=None, repr=False, compare=False)
    _csc: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )
    #: The cached transpose — or, on a graph that *is* a cached transpose,
    #: a weakref back to the graph it was built from: a strong
    #: back-pointer would be a cycle that keeps both graphs (and every
    #: array derived from them) alive until a gen-2 collection.
    _transpose: Union["CSRGraph", "weakref.ref[CSRGraph]", None] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Sequence[Tuple[int, int]],
        name: str = "graph",
        deduplicate: bool = True,
    ) -> "CSRGraph":
        """Build a graph from ``(dst, src)`` pairs.

        Each pair ``(dst, src)`` means ``dst`` aggregates from ``src``.
        """
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
        if isinstance(edges, np.ndarray):
            # Fast path for array input (e.g. the generators): no
            # per-edge Python tuple materialization.
            arr = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
        else:
            arr = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= num_vertices):
            raise GraphError("edge endpoint out of range")
        if deduplicate and arr.size:
            arr = np.unique(arr, axis=0)
        order = np.lexsort((arr[:, 1], arr[:, 0])) if arr.size else np.empty(0, np.int64)
        arr = arr[order]
        counts = np.bincount(arr[:, 0], minlength=num_vertices) if arr.size else np.zeros(
            num_vertices, dtype=np.int64
        )
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr=indptr, indices=arr[:, 1].copy(), name=name)

    # ------------------------------------------------------------------
    # Core accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def degrees(self) -> np.ndarray:
        """In-degree of every vertex (number of gathered neighbors)."""
        if self._degrees is None:
            self._degrees = np.diff(self.indptr)
        return self._degrees

    def self_loop_degrees(self) -> np.ndarray:
        """``D̂ = D + 1`` as float64 — the renormalization-trick degree
        every ψ factor is built from.  Cached: serving asks for it once
        per batch."""
        if self._self_loop_degrees is None:
            self._self_loop_degrees = self.degrees().astype(np.float64) + 1.0
        return self._self_loop_degrees

    def cache_token(self) -> GraphToken:
        """Per-object identity token for graph-keyed caches.

        Unlike ``id(self)``, the token cannot alias another graph: it is
        created lazily, referenced only by this graph, and supports
        weakrefs so caches can evict entries when the graph dies.
        """
        if self._token is None:
            self._token = GraphToken()
        return self._token

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """In-neighbors of ``v`` — the vertices ``v`` gathers from."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def csc_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Transpose-CSR (CSC) view of the adjacency, cached on the graph.

        Returns ``(t_indptr, t_indices, t_perm)``: the CSR arrays of the
        transposed graph plus the permutation mapping each transposed
        edge position to its original edge position.  Any per-edge array
        aligned with ``indices`` (e.g. the ψ edge factors) becomes the
        transposed graph's per-edge array via ``array[t_perm]`` — the
        layout the backward kernels (``grad_h = Âᵀ grad_a``) gather from.

        The arrays are computed once and cached; they are derived state,
        stripped on pickle and rebuilt lazily where needed.
        """
        if self._csc is None:
            n = self.num_vertices
            # A counting transpose, O(V + E): scipy's C ``csr_tocsc``
            # walks the forward rows in order carrying each edge's
            # position, so each transposed row lists its neighbors in
            # ascending order (as ``from_edges`` builds; duplicates kept)
            # and the carried positions are the permutation.
            positions = np.arange(self.num_edges, dtype=np.int64)
            csc = sp.csr_matrix(
                (positions, self.indices, self.indptr), shape=(n, n)
            ).tocsc()
            self._csc = (
                csc.indptr.astype(np.int64, copy=False),
                csc.indices.astype(np.int64, copy=False),
                csc.data,
            )
        return self._csc

    def transpose(self) -> "CSRGraph":
        """The transposed graph (out-edges become in-edges), cached.

        The backward pass propagates gradients along reversed edges, so
        training touches both directions every epoch; the transpose is
        built once per graph.  ``g.transpose().transpose() is g`` for as
        long as ``g`` is alive; a transpose that outlives ``g`` rebuilds.
        """
        cached = self._transpose
        if isinstance(cached, weakref.ref):
            cached = cached()
        if cached is None:
            t_indptr, t_indices, _ = self.csc_arrays()
            cached = CSRGraph(t_indptr, t_indices, name=self.name + "^T")
            cached._transpose = weakref.ref(self)  # round-trip identity
            self._transpose = cached
        return cached

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Ship only the defining arrays: derived caches (CSC view,
        transpose back-reference, identity token) are per-process state —
        the transpose back-pointer would even drag a second graph along.
        """
        state = dict(self.__dict__)
        for key in ("_csc", "_transpose", "_token", "_self_loop_degrees"):
            state[key] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        for key in ("_csc", "_transpose", "_token", "_self_loop_degrees"):
            self.__dict__.setdefault(key, None)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.indptr.ndim != 1 or len(self.indptr) < 1:
            raise GraphError("indptr must be a 1-D array of length >= 1")
        if self.indptr[0] != 0:
            raise GraphError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be nondecreasing")
        if self.indptr[-1] != len(self.indices):
            raise GraphError(
                f"indptr[-1]={self.indptr[-1]} does not match "
                f"len(indices)={len(self.indices)}"
            )
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.num_vertices
        ):
            raise GraphError("indices contain out-of-range vertex ids")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )
