"""The modeled memory hierarchy: per-core L1D/L2, shared L3, DRAM.

Mirrors the evaluation platform of Section 6 (32KB L1D, 1MB L2,
1.375MB L3 slice per core, non-inclusive shared L3) plus the access paths
the DMA engine uses: input fetches bypass the private caches but may hit
in the shared L3, and aggregation results are installed directly into the
issuing core's L2 (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..perf.machine import MachineConfig, cascade_lake_28
from .cache import SetAssociativeCache
from .dram import DramModel

#: Load-to-use latencies in core cycles (typical Cascade Lake values).
L1_LATENCY = 4
L2_LATENCY = 14
L3_LATENCY = 44


@dataclass
class AccessResult:
    """Outcome of one line access."""

    level: str  # "L1" | "L2" | "L3" | "DRAM"
    latency_cycles: float


class MemoryHierarchy:
    """Private L1/L2 per core + shared L3 + one DRAM interface."""

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        cache_scale: float = 1.0,
    ) -> None:
        """Build the hierarchy.

        Args:
            machine: platform parameters.
            cache_scale: shrink factor applied to every cache, used to
                keep cache:working-set ratios faithful when simulating
                scaled-down dataset twins (same argument as
                :func:`repro.perf.cost_model.scaled_capacity_vectors`).
        """
        machine = machine or cascade_lake_28()
        if not 0 < cache_scale <= 1.0:
            raise ValueError(f"cache_scale must be in (0, 1], got {cache_scale}")
        self.machine = machine
        line = machine.line_bytes

        def scaled(size: int, minimum: int) -> int:
            return max(minimum, int(size * cache_scale))

        self.l1: List[SetAssociativeCache] = [
            SetAssociativeCache(scaled(machine.l1d_bytes, 8 * line), 8, line, f"L1-{c}")
            for c in range(machine.cores)
        ]
        self.l2: List[SetAssociativeCache] = [
            SetAssociativeCache(scaled(machine.l2_bytes, 16 * line), 16, line, f"L2-{c}")
            for c in range(machine.cores)
        ]
        self.l3 = SetAssociativeCache(
            scaled(machine.l3_total_bytes, 16 * line), 16, line, "L3"
        )
        self.dram = DramModel(
            bandwidth_bytes_per_s=machine.dram_bandwidth,
            base_latency_ns=machine.dram_latency_ns,
            frequency_hz=machine.frequency_hz,
            line_bytes=line,
        )

    # ------------------------------------------------------------------
    def access(
        self,
        core: int,
        addr: int,
        write: bool = False,
        bypass_private: bool = False,
    ) -> AccessResult:
        """One line reference from a core (or its DMA engine).

        ``bypass_private=True`` is the DMA input path: the engine never
        allocates gathered inputs in L1/L2 (they are read-once by design —
        Section 5.2's coherence discussion) but does benefit from the
        shared L3.
        """
        if not 0 <= core < len(self.l1):
            raise IndexError(f"core {core} out of range")
        if not bypass_private:
            if self.l1[core].access(addr, write):
                return AccessResult("L1", L1_LATENCY)
            if self.l2[core].access(addr, write):
                return AccessResult("L2", L2_LATENCY)
        if self.l3.access(addr, write):
            return AccessResult("L3", L3_LATENCY)
        done = self.dram.request(0.0)
        return AccessResult("DRAM", max(L3_LATENCY, done))

    def dma_install_output(self, core: int, addr: int) -> None:
        """DMA result line pushed into the issuing core's L2 (Section 5.2)."""
        self.l2[core].install(addr, dirty=True)
        self.l3.install(addr, dirty=True)

    # ------------------------------------------------------------------
    def dram_traffic_bytes(self) -> float:
        """DRAM bytes the hierarchy has served so far (fills, line-granular)."""
        return float(self.dram.stats.bytes_served)

    def l1_accesses(self) -> int:
        return sum(c.stats.accesses for c in self.l1)

    def l2_accesses(self) -> int:
        return sum(c.stats.accesses for c in self.l2)

    def reset_stats(self) -> None:
        for cache in (*self.l1, *self.l2, self.l3):
            cache.reset_stats()
        self.dram.reset()
