"""Execution kernels: the value plane's one aggregation kernel (Alg. 1)."""

from .base import (
    KernelStats,
    UpdateParams,
    validate_inputs,
)
from .basic import (
    BasicKernel,
    DEFAULT_PREFETCH_DISTANCE,
    DEFAULT_TASK_SIZE,
    PREFETCH_LINES_PER_VECTOR,
)
from .jit import JitKernelCache, KernelSpec

__all__ = [
    "KernelStats",
    "UpdateParams",
    "validate_inputs",
    "BasicKernel",
    "DEFAULT_PREFETCH_DISTANCE",
    "DEFAULT_TASK_SIZE",
    "PREFETCH_LINES_PER_VECTOR",
    "JitKernelCache",
    "KernelSpec",
]
