"""Multicore trace-driven simulation of core-executed aggregation.

This is the baseline side of the hardware evaluation (Section 7.3): the
cores themselves walk the gather stream through their private caches.
The simulator runs every line access through the cache hierarchy for
exact access counts (Table 5) and prices time with a steady-state
memory-level-parallelism law (see :func:`multicore_service_time`),
the same law the DMA plane uses — so core-vs-DMA comparisons are
apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..graphs.csr import CSRGraph
from ..perf.machine import MachineConfig, cascade_lake_28
from .dram import DramModel
from .hierarchy import MemoryHierarchy
from .trace import layout_for, vertex_trace

#: Core-side issue overhead per line of a gather loop (address generation,
#: reduction micro-ops) in cycles.
CORE_ISSUE_CYCLES_PER_LINE = 4.0

#: Effective memory-level parallelism a core sustains on the gather loop:
#: the 12 L1 fill buffers (pegged full — Section 3) plus the additional
#: outstanding streams the L2 hardware prefetchers keep in flight.
CORE_EFFECTIVE_MLP = 20.0

#: Fraction of peak DRAM bandwidth a core-driven gather loop sustains —
#: irregular access streams never reach the STREAM number (the paper's
#: DistGNN/basic rows of Table 4 peg DRAM-BW-bound at ~79% while the
#: engine-driven gathers push closer to the interface limit).
CORE_GATHER_BW_EFFICIENCY = 0.80

#: Update-phase load modeling: the small-GEMM update issues
#: ``f_in * f_out / 16`` vector multiply-adds per vertex whose weight
#: operands are register-blocked (each L1 load feeds ~4 FMAs) and whose
#: weight panel streams from L2 (each L2 line is reused ~3 times per
#: block).  Both constants are calibrated against the published Table 5
#: fused-mode reductions, which they reproduce for BOTH graphs at the
#: paper's feature sizes.
UPDATE_L1_REUSE = 4.0
UPDATE_L2_REUSE = 3.0
VECTOR_LANES = 16.0


def update_l1_loads_per_vertex(f_in: int, f_out: int) -> float:
    """L1 load micro-ops the fused update issues per vertex."""
    return f_in * f_out / (VECTOR_LANES * UPDATE_L1_REUSE) + (f_in + f_out) / VECTOR_LANES


def update_l2_accesses_per_vertex(f_in: int, f_out: int) -> float:
    """L2 accesses (weight-panel streams + a/h_out lines) per vertex."""
    return f_in * f_out / (VECTOR_LANES * UPDATE_L2_REUSE) + (f_in + f_out) / VECTOR_LANES


def multicore_service_time(
    dram: DramModel,
    dram_lines_per_core: List[float],
    parallelism: float,
    issue_cycles_per_line: float,
    issue_lines_per_core: Optional[List[float]] = None,
) -> float:
    """Steady-state execution time (cycles) of a parallel line stream.

    ``max(bandwidth-bound, latency-bound, issue-bound)`` with the latency
    term using the loaded latency at the utilization the run induces.
    ``dram_lines_per_core`` are misses that reach DRAM; the issue term
    covers every line the core touches (hits included).
    """
    if parallelism <= 0:
        raise ValueError("parallelism must be positive")
    total_lines = float(sum(dram_lines_per_core))
    if issue_lines_per_core is None:
        issue_lines_per_core = dram_lines_per_core
    bw_time = (
        total_lines * dram.service_cycles_per_line / CORE_GATHER_BW_EFFICIENCY
    )
    # Dynamic task scheduling (Algorithm 1 uses OpenMP's dynamic
    # scheduler) balances per-core line counts to near the mean; the 5%
    # residual covers the tail task.
    cores = max(1, len(dram_lines_per_core))
    worst_core = 1.05 * total_lines / cores
    worst_issue = 1.05 * float(sum(issue_lines_per_core)) / cores
    time = max(bw_time, 1e-9)
    for _ in range(3):
        utilization = min(0.999, bw_time / max(time, 1e-9))
        latency = dram.loaded_latency(utilization)
        lat_time = worst_core * latency / parallelism
        issue_time = worst_issue * issue_cycles_per_line
        time = max(bw_time, lat_time, issue_time)
    return time


@dataclass
class SimReport:
    """Result of one trace-driven run."""

    cycles: float
    seconds: float
    l1_accesses: int
    l2_accesses: int
    l3_accesses: int
    dram_lines: int
    l2_miss_rate: float
    memory_stall_fraction: float
    update_cycles: float = 0.0
    dram_bytes: float = 0.0
    detail: Dict[str, float] = field(default_factory=dict)

    def summarize(self) -> str:
        return (
            f"cycles={self.cycles:.3g} ({self.seconds * 1e3:.2f} ms)  "
            f"L1={self.l1_accesses} L2={self.l2_accesses} "
            f"L2-miss={self.l2_miss_rate:.1%} DRAM-lines={self.dram_lines} "
            f"stall={self.memory_stall_fraction:.1%}"
        )


class CoreAggregationSim:
    """Core-executed aggregation (optionally fused with the update).

    Args:
        machine: platform parameters.
        cache_scale: cache shrink factor for twin workloads (keeps the
            cache : working-set ratio of the full-size machine).
    """

    #: Vertices per block (Algorithm 2's ``B``).
    BLOCK_SIZE = 32

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        cache_scale: float = 1.0,
    ) -> None:
        self.machine = machine or cascade_lake_28()
        self.cache_scale = cache_scale

    def run(
        self,
        graph: CSRGraph,
        feature_len: int,
        fused_update_features: Optional[int] = None,
        reuse_output_buffer: bool = False,
    ) -> SimReport:
        """Simulate one aggregation pass (plus fused update if requested),
        ``BLOCK_SIZE`` vertices per block in vertex order (Section 4.4's
        order is a relabel of the graph first).

        Args:
            fused_update_features: when set, each B-vertex block is
                followed by the update GEMM to this output width
                (Algorithm 2); None simulates aggregation only.
            reuse_output_buffer: fused-inference output placement
                (Figure 5c) — each core writes its aggregation results
                into one reusable ``BLOCK_SIZE``-row buffer instead of
                the full ``a`` matrix, so output traffic stays resident
                after the first block.  Default False keeps the
                write-through-to-``a`` behaviour of the unfused kernels
                and fused training.
        """
        machine = self.machine
        hierarchy = MemoryHierarchy(machine, cache_scale=self.cache_scale)
        layout = layout_for(graph, feature_len)
        n = graph.num_vertices
        block_size = self.BLOCK_SIZE
        cores = machine.cores
        issued_lines = [0.0] * cores
        dram_lines = [0.0] * cores
        # Interleave cores in rounds of one block each so the shared L3 /
        # DRAM see a realistic mix.
        chunk = max(1, (n + cores - 1) // cores)
        for offset in range(0, chunk, block_size):
            for core in range(cores):
                start = core * chunk + offset
                end = min(start + block_size, min((core + 1) * chunk, n))
                for pos in range(start, end):
                    trace = vertex_trace(graph, layout, pos)
                    if reuse_output_buffer:
                        # Per-core buffer slot in the a region: the slot
                        # address repeats every block, so only the first
                        # block's writes miss.
                        slot = core * block_size + (pos - start) % block_size
                        out_lines = layout.output_lines(slot)
                    else:
                        out_lines = list(trace.output_lines)
                    for addr in (
                        *trace.index_lines,
                        *trace.factor_lines,
                        *trace.gather_lines,
                    ):
                        result = hierarchy.access(core, addr)
                        issued_lines[core] += 1
                        if result.level == "DRAM":
                            dram_lines[core] += 1
                    for addr in out_lines:
                        result = hierarchy.access(core, addr, write=True)
                        issued_lines[core] += 1
                        if result.level == "DRAM":
                            dram_lines[core] += 1

        memory_cycles = multicore_service_time(
            hierarchy.dram,
            dram_lines,
            parallelism=CORE_EFFECTIVE_MLP,
            issue_cycles_per_line=CORE_ISSUE_CYCLES_PER_LINE,
            issue_lines_per_core=issued_lines,
        )
        update_cycles = 0.0
        extra_l1 = 0.0
        extra_l2_hits = 0.0
        if fused_update_features is not None:
            per_core_vertices = chunk
            flops = 2.0 * per_core_vertices * feature_len * fused_update_features
            update_cycles = flops / (
                machine.flops_per_cycle_per_core * machine.small_gemm_efficiency
            )
            # Fused: the update overlaps the next block's aggregation
            # (Figure 4); only the non-hidden remainder extends the run.
            total_cycles = max(memory_cycles, update_cycles) + 0.08 * min(
                memory_cycles, update_cycles
            )
            extra_l1 = n * update_l1_loads_per_vertex(
                feature_len, fused_update_features
            )
            extra_l2_hits = n * update_l2_accesses_per_vertex(
                feature_len, fused_update_features
            )
        else:
            total_cycles = memory_cycles

        stall = max(0.0, memory_cycles - update_cycles) / total_cycles if total_cycles else 0.0
        l2_demand = hierarchy.l2_accesses() + extra_l2_hits
        l2_misses = sum(c.stats.misses for c in hierarchy.l2)
        return SimReport(
            cycles=total_cycles,
            seconds=total_cycles / machine.frequency_hz,
            l1_accesses=int(hierarchy.l1_accesses() + extra_l1),
            l2_accesses=int(l2_demand),
            l3_accesses=hierarchy.l3.stats.accesses,
            dram_lines=int(sum(dram_lines)),
            l2_miss_rate=l2_misses / l2_demand if l2_demand else 0.0,
            memory_stall_fraction=min(1.0, stall),
            update_cycles=update_cycles,
            dram_bytes=hierarchy.dram_traffic_bytes(),
            detail={
                "memory_cycles": memory_cycles,
                "issued_lines": float(sum(issued_lines)),
            },
        )
