"""Execution kernels: the six Figure-11 strategies on the value plane."""

from .base import (
    AggregationKernel,
    FusedLayerKernel,
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
from .compressed import CompressedFusedKernel, CompressedKernel
from .distgnn import DistGNNKernel
from .fused import DEFAULT_BLOCK_SIZE, DEFAULT_BLOCKS_PER_TASK, FusedKernel
from .jit import JitKernelCache, KernelSpec
from .spmm import SpMMKernel

__all__ = [
    "AggregationKernel",
    "FusedLayerKernel",
    "KernelStats",
    "UpdateParams",
    "validate_inputs",
    "BasicKernel",
    "DEFAULT_PREFETCH_DISTANCE",
    "DEFAULT_TASK_SIZE",
    "PREFETCH_LINES_PER_VECTOR",
    "CompressedFusedKernel",
    "CompressedKernel",
    "DistGNNKernel",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_BLOCKS_PER_TASK",
    "FusedKernel",
    "JitKernelCache",
    "KernelSpec",
    "SpMMKernel",
]
