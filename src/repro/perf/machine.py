"""Machine model of the paper's evaluation platform (Section 6).

The software evaluation ran on a 28-core Intel Cascade Lake server:
AVX-512, 32KB L1D / 1MB L2 per core, 1.375MB L3 slice per core
(non-inclusive), 2.7 GHz fixed, 140.8 GB/s DRAM bandwidth, SMT off,
28 threads.

Because our dataset twins are thousands of times smaller than the paper's
graphs, the cache capacity used for locality analysis is scaled by the
footprint ratio (see :meth:`MachineConfig.scaled_cache_bytes`): what
matters for reuse behaviour is *cache size relative to working set*, which
the scaling preserves.
"""

from __future__ import annotations

from dataclasses import dataclass

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class DmaConfig:
    """Per-core DMA engine resources (Section 6, hardware setup)."""

    output_buffer_bytes: int = 2 * KB
    input_buffer_bytes: int = 2 * KB
    factor_buffer_bytes: int = 128
    index_buffer_bytes: int = 128
    tracking_table_entries: int = 32
    descriptor_queue_entries: int = 32
    vector_lanes: int = 4  # 4-lane vector unit (Section 5)

    @property
    def output_buffer_elements(self) -> int:
        """fp32 capacity of the output buffer — max E per descriptor."""
        return self.output_buffer_bytes // 4


@dataclass(frozen=True)
class MachineConfig:
    """The modeled CPU platform."""

    cores: int = 28
    frequency_hz: float = 2.7e9
    # AVX-512 with 2 FMA ports: 2 * 16 fp32 lanes * 2 (mul+add) per cycle.
    flops_per_cycle_per_core: float = 64.0
    dram_bandwidth: float = 140.8e9  # bytes/s
    dram_latency_ns: float = 90.0
    l1d_bytes: int = 32 * KB
    l2_bytes: int = 1 * MB
    l3_slice_bytes: int = int(1.375 * MB)
    line_bytes: int = 64
    l1_fill_buffers: int = 12  # MSHRs per core
    # Sustained fraction of peak each activity reaches.  These are the only
    # calibration constants in the model; everything else is counted.
    gemm_efficiency: float = 0.80  # MKL large GEMM
    small_gemm_efficiency: float = 0.70  # libxsmm fused blocks
    stream_bw_efficiency: float = 0.88  # tuned Graphite gather (JIT+prefetch)
    baseline_bw_efficiency: float = 0.80  # DistGNN gather loop
    mkl_bw_efficiency: float = 0.74  # MKL SpMM (extra pass, no prefetch tuning)
    # Decompression executes mask-expand with a load->use dependency;
    # sustained elements per cycle per core.
    decompress_elements_per_cycle: float = 2.8
    dma: DmaConfig = DmaConfig()

    # ------------------------------------------------------------------
    @property
    def peak_flops(self) -> float:
        """Machine-wide peak fp32 FLOP/s."""
        return self.cores * self.frequency_hz * self.flops_per_cycle_per_core

    @property
    def l2_total_bytes(self) -> int:
        return self.cores * self.l2_bytes

    @property
    def l3_total_bytes(self) -> int:
        return self.cores * self.l3_slice_bytes

    @property
    def feature_cache_bytes(self) -> int:
        """Capacity available to hold gathered feature vectors.

        L2s plus the shared L3; L1 is noise at this scale.  Aggregation's
        read-mostly working set effectively owns this space.
        """
        return self.l2_total_bytes + self.l3_total_bytes

    def scaled_cache_bytes(self, workload_bytes: float, paper_bytes: float) -> float:
        """Cache capacity scaled to a twin workload.

        Keeps ``cache / working-set`` equal to the paper's ratio so reuse
        distances computed on the twin produce hit rates representative of
        the full-size run.
        """
        if paper_bytes <= 0:
            raise ValueError("paper_bytes must be positive")
        ratio = workload_bytes / paper_bytes
        return self.feature_cache_bytes * ratio

    def gemm_time(self, flops: float, small: bool = False) -> float:
        """Seconds for a compute-bound GEMM of the given FLOP count."""
        eff = self.small_gemm_efficiency if small else self.gemm_efficiency
        return flops / (self.peak_flops * eff)

    def stream_time(self, bytes_moved: float, efficiency: float = None) -> float:
        """Seconds to move bytes at (a fraction of) DRAM bandwidth."""
        eff = self.stream_bw_efficiency if efficiency is None else efficiency
        return bytes_moved / (self.dram_bandwidth * eff)


def cascade_lake_28() -> MachineConfig:
    """The paper's software-evaluation server."""
    return MachineConfig()


def cascade_lake_12() -> MachineConfig:
    """The 12-core host CPU of the Figure 2 GPU experiment."""
    return MachineConfig(cores=12)
