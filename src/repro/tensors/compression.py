"""Mask-based feature compression — Section 4.3 / Figure 6 of the paper.

AVX-512 offers ``vcompressps``/``vexpandps``: given a bit mask, compress
packs the unmasked (non-zero) lanes of a vector contiguously, and expand
scatters a dense vector back into the masked positions.  The paper uses
them to strip zeros from moderately sparse feature vectors before they hit
DRAM and to restore them after reading.

Key properties reproduced here:

* metadata is exactly one bit per element (``1/32`` overhead for fp32),
  independent of sparsity level;
* storage per vector stays *fixed-stride*: the compressed payload occupies
  the front of the original slot, so random access needs no indirection
  (Section 4.3, last paragraph) — compression saves *bandwidth*, never
  footprint;
* round-trip is exact: decompress(compress(x)) == x.

The traffic accounting mirrors the paper's arithmetic: at sparsity ``s``
the bytes moved are ``(1 - s) + 1/32`` of the dense bytes (e.g. 50% sparse
fp32 -> 46.875% traffic saved).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

#: Bits of mask metadata per feature element.
MASK_BITS_PER_ELEMENT = 1

#: Simulated hardware vector length in fp32 lanes (AVX-512: 512/32).
VECTOR_LANES = 16


@dataclass(frozen=True)
class CompressedVector:
    """A compressed feature vector: dense payload + per-element bit mask.

    ``payload`` holds the non-zero elements in order; ``mask`` is a packed
    uint8 array (numpy packbits layout) with one bit per original element;
    ``length`` is the original element count.
    """

    payload: np.ndarray
    mask: np.ndarray
    length: int

    @property
    def nonzeros(self) -> int:
        return len(self.payload)


def compress(vector: np.ndarray) -> CompressedVector:
    """Compress one feature vector (Figure 6a/6b).

    Step 1 compares against zero to build the mask; step 2 bubble-collapses
    the non-zero lanes.  Vectorized over the whole vector rather than 16
    lanes at a time — numerically identical.
    """
    vector = np.ascontiguousarray(vector, dtype=np.float32)
    nonzero = vector != 0.0
    payload = vector[nonzero]
    mask = np.packbits(nonzero)
    return CompressedVector(payload=payload, mask=mask, length=len(vector))


def decompress(compressed: CompressedVector) -> np.ndarray:
    """Restore the sparse vector (Figure 6c bubble-expand)."""
    out = np.zeros(compressed.length, dtype=np.float32)
    nonzero = np.unpackbits(compressed.mask, count=compressed.length).astype(bool)
    if int(nonzero.sum()) != compressed.nonzeros:
        raise ValueError(
            "mask population does not match payload length "
            f"({int(nonzero.sum())} vs {compressed.nonzeros})"
        )
    out[nonzero] = compressed.payload
    return out


@dataclass(frozen=True)
class CompressedMatrix:
    """A feature matrix compressed row-by-row into fixed-stride slots.

    ``slots`` has the original (rows, cols) shape; row ``v`` keeps its
    compressed payload in ``slots[v, :counts[v]]`` and garbage beyond —
    exactly the paper's constant-sized storage scheme.
    """

    slots: np.ndarray
    masks: np.ndarray  # (rows, ceil(cols/8)) packed bits
    counts: np.ndarray  # (rows,) non-zeros per row
    cols: int

    @property
    def rows(self) -> int:
        return len(self.counts)

    def total_stored_bytes(self) -> int:
        return int(
            self.counts.sum() * self.slots.dtype.itemsize
            + self.masks.shape[0] * self.masks.shape[1]
        )

    def dense_bytes(self) -> int:
        return self.slots.nbytes


def compress_matrix(matrix: np.ndarray) -> CompressedMatrix:
    """Compress every row of a feature matrix."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    rows, cols = matrix.shape
    nonzero = matrix != 0.0
    counts = nonzero.sum(axis=1).astype(np.int64)
    slots = np.zeros_like(matrix)
    # Stable left-pack per row: position of each nonzero within its row.
    positions = np.cumsum(nonzero, axis=1) - 1
    rr, cc = np.nonzero(nonzero)
    slots[rr, positions[rr, cc]] = matrix[rr, cc]
    masks = np.packbits(nonzero, axis=1)
    return CompressedMatrix(slots=slots, masks=masks, counts=counts, cols=cols)


def decompress_matrix(compressed: CompressedMatrix) -> np.ndarray:
    """Restore the dense feature matrix."""
    rows, cols = compressed.rows, compressed.cols
    nonzero = np.unpackbits(compressed.masks, axis=1, count=cols).astype(bool)
    out = np.zeros((rows, cols), dtype=np.float32)
    positions = np.cumsum(nonzero, axis=1) - 1
    rr, cc = np.nonzero(nonzero)
    out[rr, cc] = compressed.slots[rr, positions[rr, cc]]
    return out


def traffic_ratio(sparsity: float) -> float:
    """Fraction of dense fp32 traffic that compressed transfer still
    moves.

    ``(1 - sparsity) + 1/32``; below the break-even sparsity of ``1/32``
    compression *adds* traffic.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    return (1.0 - sparsity) + MASK_BITS_PER_ELEMENT / 32


def traffic_saved(sparsity: float) -> float:
    """Fraction of dense fp32 traffic eliminated (paper: 46.875% at 50%)."""
    return 1.0 - traffic_ratio(sparsity)
