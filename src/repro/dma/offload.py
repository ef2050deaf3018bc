"""Algorithm 5: pipelined fused DMA-aggregation + core update.

The core offloads each block of ``B`` vertex aggregations to its DMA
engine and updates the *previous* block while the engine works, using
ping-pong descriptor batches.  This module provides both planes:

* value plane — descriptors are actually built (64-byte packed form),
  executed by :class:`repro.dma.engine.DmaEngine`, and the results must
  match the reference aggregation;
* time plane — engine fetches walk the cache hierarchy (inputs bypass
  private caches, outputs land in L2) and block times follow the
  tracking-table parallelism law, overlapped with the core's update GEMM
  exactly as the ping-pong structure allows.

The host prepares a self-loop-augmented gather list (index + factor
arrays covering ``N(v) ∪ {v}``) once per graph, so a single descriptor
covers a vertex's whole aggregation including the self contribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..kernels.base import UpdateParams, validate_inputs
from ..nn.aggregate import normalization_factors
from ..perf.machine import cascade_lake_28
from ..sim.hierarchy import MemoryHierarchy
from ..sim.trace import LINE, MemoryLayout
from .descriptor import (
    AggregationDescriptor,
    BinOp,
    IdxType,
    RedOp,
    ValType,
)
from .engine import STATUS_OK, DmaAddressSpace, DmaEngine


@dataclass(frozen=True)
class GatherList:
    """Host-prepared self-loop-augmented CSR (indices + ψ factors)."""

    indptr: np.ndarray  # (n+1,) int64
    indices: np.ndarray  # (|E|+n,) int64
    factors: np.ndarray  # (|E|+n,) float32

    @classmethod
    def build(cls, graph: CSRGraph, aggregator: str) -> "GatherList":
        edge_f, self_f = normalization_factors(graph, aggregator)
        n = graph.num_vertices
        degs = graph.degrees()
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degs + 1, out=indptr[1:])
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.int64)
        factors = np.empty(total, dtype=np.float32)
        for v in range(n):
            s_old, e_old = graph.indptr[v], graph.indptr[v + 1]
            s_new = indptr[v]
            count = e_old - s_old
            indices[s_new : s_new + count] = graph.indices[s_old:e_old]
            factors[s_new : s_new + count] = edge_f[s_old:e_old]
            indices[s_new + count] = v
            factors[s_new + count] = self_f[v]
        return cls(indptr=indptr, indices=indices, factors=factors)


@dataclass
class DmaRunReport:
    """Timing and memory-system outcome of one DMA-offloaded pass."""

    cycles: float
    seconds: float
    core_l1_accesses: int
    core_l2_accesses: int
    l2_miss_rate: float
    engine_dram_lines: int
    engine_l3_hits: int
    descriptors_issued: int
    descriptors_split: int
    core_wait_fraction: float
    update_cycles: float
    dma_cycles: float
    detail: Dict[str, float] = field(default_factory=dict)


class DmaOffloadRunner:
    """Runs full-graph aggregation (optionally fused update) via DMA on
    the 28-core machine, ``BLOCK_SIZE`` vertices per offloaded block, in
    vertex order (Section 4.4's order is a relabel of the graph first)."""

    #: Vertices per descriptor batch (Algorithm 5's ``B``).
    BLOCK_SIZE = 32

    def __init__(
        self,
        cache_scale: float = 1.0,
        tracking_entries: Optional[int] = None,
    ) -> None:
        self.machine = cascade_lake_28()
        self.cache_scale = cache_scale
        self.tracking_entries = (
            tracking_entries or self.machine.dma.tracking_table_entries
        )

    # ------------------------------------------------------------------
    def run_layer(
        self,
        graph: CSRGraph,
        h: np.ndarray,
        params: Optional[UpdateParams] = None,
        aggregator: str = "gcn",
    ) -> Tuple[np.ndarray, Optional[np.ndarray], DmaRunReport]:
        """Aggregate every vertex through the DMA engines.

        Args:
            params: when given, the core applies the fused update per
                block (Algorithm 5); when None this is aggregation-only
                (the Figure 16 / Table 5 "aggregation only" scenario).

        Returns:
            (a, None, report) in aggregation-only mode, or
            (h_out, a, report) in fused mode.
        """
        validate_inputs(graph, h)
        machine = self.machine
        n = graph.num_vertices
        f_in = h.shape[1]

        gather = GatherList.build(graph, aggregator)
        layout = MemoryLayout(
            num_vertices=n, num_edges=len(gather.indices), feature_len=f_in
        )

        # ---------------- value plane: address space + engines ----------
        h_flat = np.ascontiguousarray(h, dtype=np.float32).reshape(-1)
        a_out = np.zeros(n * f_in, dtype=np.float32)
        idx32 = gather.indices.astype(np.int64)
        status = np.zeros(n * 8, dtype=np.int64)  # generous status records
        space = DmaAddressSpace()
        # Functional layout: element-granular bases (value plane need not
        # match the padded byte layout used for line addressing).
        H_BASE, IDX_BASE, FACTOR_BASE, OUT_BASE, STATUS_BASE = (
            0x1_0000_0000,
            0x2_0000_0000,
            0x3_0000_0000,
            0x4_0000_0000,
            0x5_0000_0000,
        )
        space.register(H_BASE, h_flat)
        space.register(IDX_BASE, idx32)
        space.register(FACTOR_BASE, gather.factors)
        space.register(OUT_BASE, a_out)
        space.register(STATUS_BASE, status)

        hierarchy = MemoryHierarchy(machine, cache_scale=self.cache_scale)
        engines = [
            DmaEngine(core, machine.dma, space) for core in range(machine.cores)
        ]

        out_capacity = machine.dma.output_buffer_elements
        cores = machine.cores
        chunk = max(1, (n + cores - 1) // cores)

        descriptors_issued = 0
        descriptors_split = 0
        core_dma_cycles = [0.0] * cores
        core_update_cycles = [0.0] * cores
        core_pipeline_cycles = [0.0] * cores
        status_cursor = 0

        # Descriptor ring: one line per descriptor written by the core.
        desc_ring_base = layout.end + LINE

        h_out = None
        if params is not None:
            if params.weight.shape[0] != f_in:
                raise ValueError("weight rows must match feature length")
            h_out = np.empty((n, params.weight.shape[1]), dtype=np.float32)

        # Blocks interleave across cores (round-robin by block offset) so
        # the shared L3 and DRAM see the same concurrent mix as the
        # core-executed simulation — otherwise the first core would take
        # every cold miss.
        per_core_block_times: List[List[Tuple[float, float]]] = [
            [] for _ in range(cores)
        ]
        for offset in range(0, chunk, self.BLOCK_SIZE):
            for core in range(cores):
                start = core * chunk + offset
                end = min(start + self.BLOCK_SIZE, min((core + 1) * chunk, n))
                if start >= end:
                    continue
                engine = engines[core]
                block_start, block_end = start, end
                index_lines: List[int] = []
                factor_lines: List[int] = []
                input_lines: List[int] = []
                output_lines: List[int] = []
                for v in range(block_start, block_end):
                    s, e = int(gather.indptr[v]), int(gather.indptr[v + 1])
                    # Split when E exceeds the output buffer (Section 5.2).
                    pieces = range(0, f_in, out_capacity)
                    for piece_start in pieces:
                        piece_len = min(out_capacity, f_in - piece_start)
                        desc = AggregationDescriptor(
                            num_values=piece_len,
                            num_blocks=e - s,
                            padded_block_bytes=f_in * 4,
                            idx_addr=IDX_BASE + s * 8,
                            in_addr=H_BASE + piece_start * 4,
                            out_addr=OUT_BASE + (v * f_in + piece_start) * 4,
                            factor_addr=FACTOR_BASE + s * 4,
                            status_addr=STATUS_BASE + status_cursor * 8,
                            red_op=RedOp.SUM,
                            bin_op=BinOp.MUL,
                            idx_type=IdxType.U32,
                            val_type=ValType.F32,
                        )
                        status_cursor = (status_cursor + 1) % len(status)
                        # Core enqueues the descriptor: one L1 line write.
                        hierarchy.access(
                            core,
                            desc_ring_base + (descriptors_issued % 64) * LINE,
                            write=True,
                        )
                        descriptors_issued += 1
                        if piece_start:
                            descriptors_split += 1
                        code = engine.execute(desc)
                        if code != STATUS_OK:
                            raise RuntimeError(
                                f"DMA descriptor failed with status {code}"
                            )
                    # Line addresses for the timing plane.
                    index_lines.extend(layout.index_lines(s, e))
                    factor_lines.extend(layout.factor_lines(s, e))
                    for u in gather.indices[s:e]:
                        input_lines.extend(layout.feature_lines(int(u)))
                    output_lines.extend(layout.output_lines(v))
                counts = engine.fetch_lines(
                    hierarchy, index_lines, factor_lines, input_lines, output_lines
                )
                dma_cycles = engine.batch_time_cycles(
                    hierarchy.dram,
                    counts["dram_lines"],
                    counts["touched_lines"],
                    tracking_entries=self.tracking_entries,
                    contention=machine.cores,
                )
                update_cycles = 0.0
                if params is not None:
                    block_vertices = list(range(block_start, block_end))
                    update_cycles = self._core_update_block(
                        hierarchy, core, layout, params, a_out, h_out, block_vertices, f_in
                    )
                per_core_block_times[core].append((dma_cycles, update_cycles))
                core_dma_cycles[core] += dma_cycles
                core_update_cycles[core] += update_cycles
        for core in range(cores):
            core_pipeline_cycles[core] = _pipeline_time(per_core_block_times[core])

        # Descriptors are issued from dynamically scheduled tasks
        # (Algorithm 5), so per-engine work balances to near the mean;
        # the shared DRAM additionally lower-bounds the total.
        from .engine import ENGINE_BW_EFFICIENCY

        total_dram_lines = sum(e.stats.dram_lines for e in engines)
        bw_floor = (
            total_dram_lines
            * hierarchy.dram.service_cycles_per_line
            / ENGINE_BW_EFFICIENCY
        )
        balanced_pipeline = 1.05 * sum(core_pipeline_cycles) / max(1, cores)
        total_cycles = max(balanced_pipeline, bw_floor)

        dma_total = sum(core_dma_cycles)
        upd_total = sum(core_update_cycles)
        # Core stall: the fraction of the run where the core has no update
        # work left and waits on the engine (Alg. 5 lines 9-10).
        wait = max(0.0, dma_total - upd_total) / max(dma_total, 1e-9)
        extra_l1 = 0.0
        extra_l2_hits = 0.0
        if params is not None:
            from ..sim.core_sim import (
                update_l1_loads_per_vertex,
                update_l2_accesses_per_vertex,
            )

            extra_l1 = n * update_l1_loads_per_vertex(f_in, params.weight.shape[1])
            extra_l2_hits = n * update_l2_accesses_per_vertex(
                f_in, params.weight.shape[1]
            )
        l2_demand = hierarchy.l2_accesses() + extra_l2_hits
        l2_misses = sum(c.stats.misses for c in hierarchy.l2)
        report = DmaRunReport(
            cycles=total_cycles,
            seconds=total_cycles / machine.frequency_hz,
            core_l1_accesses=int(hierarchy.l1_accesses() + extra_l1),
            core_l2_accesses=int(l2_demand),
            l2_miss_rate=l2_misses / l2_demand if l2_demand else 0.0,
            engine_dram_lines=total_dram_lines,
            engine_l3_hits=sum(e.stats.l3_hits for e in engines),
            descriptors_issued=descriptors_issued,
            descriptors_split=descriptors_split,
            core_wait_fraction=min(1.0, wait),
            update_cycles=upd_total,
            dma_cycles=dma_total,
        )
        a_matrix = a_out.reshape(n, f_in)
        if params is None:
            return a_matrix, None, report
        return h_out, a_matrix, report

    # ------------------------------------------------------------------
    def _core_update_block(
        self,
        hierarchy: MemoryHierarchy,
        core: int,
        layout: MemoryLayout,
        params: UpdateParams,
        a_out: np.ndarray,
        h_out: np.ndarray,
        block_vertices: List[int],
        f_in: int,
    ) -> float:
        """Core-side update of one block: value + cache accounting.

        The a-block lines were installed into L2 by the engine, so these
        reads hit — the point of writing results to L2 (Section 5.2).
        """
        machine = self.machine
        rows = np.stack([a_out[v * f_in : (v + 1) * f_in] for v in block_vertices])
        updated = params.apply(rows)
        for i, v in enumerate(block_vertices):
            h_out[v] = updated[i]
            for addr in layout.output_lines(v):
                hierarchy.access(core, addr, write=False)
        flops = 2.0 * len(block_vertices) * f_in * params.weight.shape[1]
        return flops / (
            machine.flops_per_cycle_per_core * machine.small_gemm_efficiency
        )


def _pipeline_time(block_times: List[Tuple[float, float]]) -> float:
    """Total cycles of the ping-pong pipeline of Algorithm 5.

    Block ``j``'s update overlaps block ``j+1``'s DMA-aggregation; the
    critical path is the classic two-stage pipeline recurrence.
    """
    if not block_times:
        return 0.0
    engine_free = 0.0
    core_free = 0.0
    prev_done = None
    prev_update = 0.0
    for dma_cycles, update_cycles in block_times:
        # The core enqueues this block's descriptors (cheap), then the
        # engine runs them as soon as it is free.
        start = max(engine_free, core_free)
        engine_free = start + dma_cycles
        # Meanwhile the core updates the previous block, which requires
        # that block's aggregations to have completed.
        if prev_done is not None:
            core_free = max(core_free, prev_done) + prev_update
        prev_done, prev_update = engine_free, update_cycles
    # Trailing update of the final block (Alg. 5 lines 15-20).
    core_free = max(core_free, prev_done) + prev_update
    return core_free
