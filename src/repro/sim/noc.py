"""Network-on-chip latency model.

The modeled server's cores and L3 slices sit on a 2-D mesh; the home
directory of a line is its L3 slice, so an access from core ``c`` to a
line homed at slice ``s`` pays a hop-proportional latency (Figure 7a:
the DMA engine "shares the port to the network on chip with the L2"
and requests go "to the home directory of the address").
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MeshNoc:
    """An X-Y routed 2-D mesh of cores/L3 slices.

    Args:
        cores: number of nodes (arranged as the squarest grid).
        hop_cycles: per-hop link + router latency in core cycles.
        base_cycles: fixed injection/ejection overhead.
    """

    cores: int = 28
    hop_cycles: float = 2.0
    base_cycles: float = 4.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.hop_cycles < 0 or self.base_cycles < 0:
            raise ValueError("latencies must be non-negative")

    @property
    def width(self) -> int:
        return max(1, int(math.ceil(math.sqrt(self.cores))))

    def coordinates(self, node: int) -> "tuple[int, int]":
        if not 0 <= node < self.cores:
            raise IndexError(f"node {node} out of range")
        return node % self.width, node // self.width

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance under X-Y routing."""
        sx, sy = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        return abs(sx - dx) + abs(sy - dy)

    def latency(self, src: int, dst: int) -> float:
        """Cycles for one traversal between two nodes."""
        return self.base_cycles + self.hop_cycles * self.hops(src, dst)

    def home_slice(self, line_address: int) -> int:
        """The L3 slice owning a line (simple address hash)."""
        return (line_address // 64) % self.cores

    def l3_access_latency(self, core: int, line_address: int) -> float:
        """Round-trip cycles from a core to a line's home slice."""
        return 2.0 * self.latency(core, self.home_slice(line_address))
