"""Design-space extensions the paper discusses but does not build.

Section 5 states: "We opt not to implement the feature compression in
the DMA engine.  This is because the compression hardware is expensive.
Since only the models that use ReLU or dropout benefit from feature
compression, the use case does not justify the hardware cost."

This module models that rejected design so the trade-off can be
quantified instead of asserted: a compression-capable engine shrinks the
gathered bytes by the Section 4.3 ratio at the price of extra area and a
per-element expand latency in the engine's vector unit.  Section 7.2.1
also hints that "adding more aggressive software prefetches may yield
additional speedup" when fill buffers are underutilized; the second
model prices that.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..perf.machine import cascade_lake_28
from ..sim.dram import DramModel
from ..tensors.compression import traffic_ratio
from .engine import ENGINE_BW_EFFICIENCY

#: Area model, in mm^2 at 22nm (paper: the base engine's 4.5KB of SRAM
#: is 0.051 mm^2).  A mask-expand datapath plus wider buffers roughly
#: triples the footprint — the "expensive" the paper is referring to.
BASE_ENGINE_AREA_MM2 = 0.051
COMPRESSION_AREA_MM2 = 0.110

#: Elements per cycle the engine's 4-lane vector unit expands.
ENGINE_EXPAND_ELEMENTS_PER_CYCLE = 4.0


@dataclass(frozen=True)
class CompressedDmaEstimate:
    """Modeled outcome of adding compression hardware to the engine."""

    sparsity: float
    speedup_over_plain_dma: float
    area_ratio: float

    @property
    def worthwhile(self) -> bool:
        """The paper's bar: does the speedup clear the 2x-area cost?

        A deliberately simple perf/area criterion: the extension must buy
        at least as much relative speedup as the relative area it adds.
        """
        return self.speedup_over_plain_dma >= self.area_ratio ** 0.5


def compressed_dma_estimate(sparsity: float) -> CompressedDmaEstimate:
    """Model a compression-capable DMA engine vs the paper's engine, on
    the 28-core machine, 256-wide features and a mean degree of 20.

    Both engines are bandwidth-bound in steady state (Figure 16 past the
    knee), so the plain engine's time per vertex is the dense gathered
    bytes over its bandwidth share, while the compressed engine moves
    ``traffic_ratio(sparsity)`` of those bytes but pays the expand
    latency in its narrow vector unit.
    """
    machine = cascade_lake_28()
    feature_len, mean_degree = 256, 20.0
    dram = DramModel(
        bandwidth_bytes_per_s=machine.dram_bandwidth,
        base_latency_ns=machine.dram_latency_ns,
        frequency_hz=machine.frequency_hz,
    )
    gathers = mean_degree + 1.0
    dense_bytes = gathers * feature_len * 4.0
    share = dram.service_cycles_per_line / 64.0 * machine.cores  # cycles per byte
    plain_cycles = dense_bytes * share / ENGINE_BW_EFFICIENCY
    packed_bytes = dense_bytes * traffic_ratio(sparsity)
    expand_cycles = gathers * feature_len / ENGINE_EXPAND_ELEMENTS_PER_CYCLE
    packed_cycles = packed_bytes * share / ENGINE_BW_EFFICIENCY + expand_cycles
    return CompressedDmaEstimate(
        sparsity=sparsity,
        speedup_over_plain_dma=plain_cycles / packed_cycles,
        area_ratio=(BASE_ENGINE_AREA_MM2 + COMPRESSION_AREA_MM2)
        / BASE_ENGINE_AREA_MM2,
    )


@dataclass(frozen=True)
class AggressivePrefetchEstimate:
    """Modeled outcome of issuing deeper software prefetches (§7.2.1)."""

    fill_buffer_occupancy: float
    speedup_over_default: float


def aggressive_prefetch_estimate(
    fill_buffer_occupancy: float,
) -> AggressivePrefetchEstimate:
    """Price the paper's "more aggressive software prefetch" suggestion
    on the 28-core machine.

    When the fill buffers are fully occupied (the large graphs of Table
    4), extra prefetches displace demand misses and buy nothing; when
    occupancy is below 1 (products/wikipedia after c-locality), deeper
    prefetching converts idle fill-buffer slots into bandwidth, up to the
    interface limit.
    """
    if not 0.0 <= fill_buffer_occupancy <= 1.0:
        raise ValueError("occupancy must be in [0, 1]")
    machine = cascade_lake_28()
    idle = 1.0 - fill_buffer_occupancy
    # Each reclaimed slot adds proportional MLP; speedup saturates at the
    # remaining headroom to the raw interface (1/stream efficiency).
    headroom = 1.0 / machine.stream_bw_efficiency
    speedup = min(headroom, 1.0 + idle * (headroom - 1.0) / 0.7)
    return AggressivePrefetchEstimate(
        fill_buffer_occupancy=fill_buffer_occupancy,
        speedup_over_default=speedup,
    )
