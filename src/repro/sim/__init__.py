"""Trace-driven hardware simulation: caches, DRAM, core-side aggregation."""

from .cache import CacheStats, SetAssociativeCache
from .core_sim import (
    CORE_EFFECTIVE_MLP,
    CORE_ISSUE_CYCLES_PER_LINE,
    CoreAggregationSim,
    SimReport,
    multicore_service_time,
)
from .dram import DramModel, DramStats
from .prefetcher import PrefetchStats, StreamPrefetcher
from .hierarchy import (
    AccessResult,
    L1_LATENCY,
    L2_LATENCY,
    L3_LATENCY,
    MemoryHierarchy,
)
from .trace import MemoryLayout, VertexTrace, layout_for, vertex_trace

__all__ = [
    "CacheStats",
    "SetAssociativeCache",
    "CORE_EFFECTIVE_MLP",
    "CORE_ISSUE_CYCLES_PER_LINE",
    "CoreAggregationSim",
    "SimReport",
    "multicore_service_time",
    "DramModel",
    "DramStats",
    "AccessResult",
    "L1_LATENCY",
    "L2_LATENCY",
    "L3_LATENCY",
    "MemoryHierarchy",
    "PrefetchStats",
    "StreamPrefetcher",
    "MemoryLayout",
    "VertexTrace",
    "layout_for",
    "vertex_trace",
]
