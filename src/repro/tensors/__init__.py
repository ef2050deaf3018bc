"""Feature-tensor utilities: mask compression and sparsity tracking."""

from .compression import (
    MASK_BITS_PER_ELEMENT,
    VECTOR_LANES,
    CompressedMatrix,
    CompressedVector,
    compress,
    compress_matrix,
    decompress,
    decompress_matrix,
    traffic_ratio,
    traffic_saved,
)
from .sparsity import (
    SparsityProfile,
    sparsity,
)

__all__ = [
    "MASK_BITS_PER_ELEMENT",
    "VECTOR_LANES",
    "CompressedMatrix",
    "CompressedVector",
    "compress",
    "compress_matrix",
    "decompress",
    "decompress_matrix",
    "traffic_ratio",
    "traffic_saved",
    "SparsityProfile",
    "sparsity",
]
