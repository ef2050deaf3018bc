"""The one gather-scale-segment-reduce core (Section 4.1, Alg. 1).

Aggregation is a memory-bound gather of neighbor rows, a ψ scale and a
per-vertex reduction, and the paper's point is that it must run as ONE
fused pass.  :class:`ScaledCSR` is that pass: a ψ-scaled (possibly
rectangular) CSR operator whose call computes

    ``self_factors[:, None] * h[row_offset : row_offset + n_rows] + S @ h``

through scipy's fused sparse × dense product — no ``E × F`` gathered
temporary, fp32 in / fp32 out, each output row accumulated sequentially
in CSR edge order, so the result is deterministic.  The full-graph
kernel (:mod:`repro.kernels.basic`, its operators built by
:mod:`repro.kernels.jit`), the shard kernel of the
partition-parallel trainer (:mod:`repro.parallel.sharded`) and the
serving block forward (:mod:`repro.nn.minibatch`) are thin callers.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from scipy import sparse


class ScaledCSR:
    """``h -> ψ_self ⊙ h[rows] + S @ h`` for one fixed sparsity layout.

    Build with :meth:`from_csr` or :meth:`from_coo`; the constructor
    binds an already-built scipy matrix.

    Attributes:
        matrix: ``S``, the ψ-scaled ``(num_rows, num_cols)`` scipy CSR.
        self_factors: one ψ per output row for the implicit self edge,
            or ``None`` when self edges already ride in ``S``.
        row_offset: input row that output row 0's self term reads — 0
            for a whole layout (owned rows first, halo copies in the
            tail), the slice start for a :meth:`rows` sub-operator.
    """

    def __init__(
        self,
        matrix: "sparse.csr_matrix",
        self_factors: Optional[np.ndarray] = None,
        row_offset: int = 0,
    ) -> None:
        self.matrix = matrix
        self.self_factors = self_factors
        self.row_offset = row_offset
        self.num_rows = matrix.shape[0]
        self.nnz = int(matrix.nnz)
        #: (start, stop) -> row-slice operator; one entry per range ever
        #: requested, one per lane of a pass.
        self._row_slices: Dict[Tuple[int, int], "ScaledCSR"] = {}

    @classmethod
    def from_csr(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_factors: np.ndarray,
        self_factors: Optional[np.ndarray],
        num_cols: int,
    ) -> "ScaledCSR":
        """Operator over a CSR layout: output row ``i`` reduces input
        rows ``indices[indptr[i]:indptr[i + 1]]``, each scaled by its
        ``edge_factors`` entry.  int32 index arrays (and the factor
        arrays) are wrapped, not copied, so a layout living in shared
        memory stays shared; ``num_cols`` is the input row count."""
        matrix = sparse.csr_matrix(
            (edge_factors, indices, indptr), shape=(len(indptr) - 1, num_cols)
        )
        return cls(matrix, self_factors)

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        edge_factors: np.ndarray,
        shape: Tuple[int, int],
    ) -> "ScaledCSR":
        """Operator over an unordered edge list (no self term).

        The COO → CSR conversion sums duplicate ``(row, col)`` entries,
        which is exactly what reducing every edge separately would do.
        """
        return cls(sparse.csr_matrix((edge_factors, (rows, cols)), shape=shape))

    def rows(self, start: int, stop: int) -> "ScaledCSR":
        """The operator producing output rows ``[start, stop)`` only.

        A CSR row slice is contiguous in ``indices``/``data``, so the
        slice *views* the parent's arrays: only its ``indptr`` (rebased
        to 0, in the index dtype) is new.  scipy's constructor would
        copy even with ``copy=False``, so the arrays are assigned.  The
        slice is memoised; the whole range is the operator itself.
        """
        if start == 0 and stop == self.num_rows:
            return self
        sub = self._row_slices.get((start, stop))
        if sub is None:
            parent = self.matrix
            lo, hi = parent.indptr[start], parent.indptr[stop]
            matrix = sparse.csr_matrix(
                (stop - start, parent.shape[1]), dtype=parent.dtype
            )
            matrix.indices = parent.indices[lo:hi]
            matrix.data = parent.data[lo:hi]
            matrix.indptr = (parent.indptr[start : stop + 1] - lo).astype(
                parent.indices.dtype
            )
            self_factors = self.self_factors
            if self_factors is not None:
                self_factors = self_factors[start:stop]
            sub = ScaledCSR(matrix, self_factors, self.row_offset + start)
            self._row_slices[(start, stop)] = sub
        return sub

    def __call__(self, h: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The product, landing in ``out`` if lent — which must have the
        dtype the product has, so no element rounds twice."""
        if self.self_factors is None:
            if out is None:
                return self.matrix @ h
            out[...] = self.matrix @ h
            return out
        lo = self.row_offset
        # Basic slices are views: the self term is one multiply, and the
        # neighbor sum lands on top of it in a single C pass.
        out = np.multiply(
            h[lo : lo + self.num_rows], self.self_factors[:, None], out=out
        )
        if self.nnz:
            out += self.matrix @ h
        return out
