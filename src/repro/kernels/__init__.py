"""Execution kernels: the value plane's one aggregation kernel (Alg. 1)."""

from .base import (
    KernelStats,
    UpdateParams,
    validate_inputs,
)
from .basic import (
    BasicKernel,
    DEFAULT_PREFETCH_DISTANCE,
    PREFETCH_LINES_PER_VECTOR,
    TASK_SIZE,
)
from .jit import JitKernelCache, KernelSpec

__all__ = [
    "KernelStats",
    "UpdateParams",
    "validate_inputs",
    "BasicKernel",
    "DEFAULT_PREFETCH_DISTANCE",
    "PREFETCH_LINES_PER_VECTOR",
    "TASK_SIZE",
    "JitKernelCache",
    "KernelSpec",
]
