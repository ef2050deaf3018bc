"""DRAM bandwidth/latency model with load-dependent latency.

Two behaviours matter for the hardware evaluation:

* aggregate bandwidth is finite (140.8 GB/s on the modeled machine), so
  line transfers serialize once demand exceeds it;
* loaded latency grows with utilization — the queueing effect that makes
  memory-level parallelism (fill buffers, the DMA tracking table of
  Figure 16) keep paying off well past the point where unloaded-latency
  arithmetic says bandwidth is saturated.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DramStats:
    lines_served: int = 0
    bytes_served: float = 0.0
    busy_cycles: float = 0.0

    def utilization(self, elapsed_cycles: float) -> float:
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed_cycles)


class DramModel:
    """A single shared memory interface serving 64B line transfers.

    Args:
        bandwidth_bytes_per_s: peak sequential bandwidth.
        base_latency_ns: unloaded access latency.
        frequency_hz: core clock, to express everything in core cycles.
        line_bytes: transfer granularity.
    """

    def __init__(
        self,
        bandwidth_bytes_per_s: float = 140.8e9,
        base_latency_ns: float = 90.0,
        frequency_hz: float = 2.7e9,
        line_bytes: int = 64,
    ) -> None:
        if bandwidth_bytes_per_s <= 0 or base_latency_ns < 0 or frequency_hz <= 0:
            raise ValueError("DRAM parameters must be positive")
        self.frequency_hz = frequency_hz
        self.line_bytes = line_bytes
        self.base_latency_cycles = base_latency_ns * 1e-9 * frequency_hz
        # Cycles the interface is occupied per line.
        self.service_cycles_per_line = line_bytes / bandwidth_bytes_per_s * frequency_hz
        self.busy_until = 0.0
        self.stats = DramStats()

    def request(self, now_cycle: float) -> float:
        """Serve one line; returns the completion cycle.

        The transfer occupies the interface for its service time starting
        no earlier than ``now`` or the previous transfer's end; the
        requester additionally waits the base latency plus a queueing
        delay that grows as the interface saturates.
        """
        start = max(now_cycle, self.busy_until)
        self.busy_until = start + self.service_cycles_per_line
        queue_delay = start - now_cycle
        self.stats.lines_served += 1
        self.stats.bytes_served += self.line_bytes
        self.stats.busy_cycles += self.service_cycles_per_line
        return self.busy_until + self.base_latency_cycles + queue_delay * 0.0

    def loaded_latency(self, utilization: float) -> float:
        """Expected latency (cycles) at a given utilization.

        Classic M/D/1-flavoured inflation: ``base / (1 - u)``, capped at
        4x so the model stays bounded near saturation (calibrated against
        the Figure 16 knee at 32 tracking-table entries).
        """
        u = min(max(utilization, 0.0), 0.999)
        return min(self.base_latency_cycles / max(1e-3, 1.0 - u),
                   4.0 * self.base_latency_cycles)

    def reset(self) -> None:
        self.busy_until = 0.0
        self.stats = DramStats()
