"""GPU epoch-time model for the Figure 2 motivation experiment.

The paper trains a sampled GraphSAGE on a Titan V with the sampling on a
12-core CPU and finds sampling + mini-batching take over 80% of epoch
time.  We run the real sampler of :mod:`repro.gpu.sampler` on the twin
graph to obtain the epoch's sampling *work*, then price both sides:

* CPU sampling: per-sampled-edge and per-batch costs calibrated to the
  published breakdown (53.7 s sampling / 7.0 s layers at batch 1024 on
  full ogbn-products);
* GPU layers: transfer of the gathered input features over PCIe plus
  layer compute at sustained GPU throughput, with a fixed per-batch
  launch/sync overhead — the term that makes small batches
  disproportionally expensive (Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from ..graphs.csr import CSRGraph
from .sampler import EpochSamplingStats

#: CPU-side cost per sampled edge (random neighbor pick + dedup hashing),
#: calibrated so the full-scale products run lands near Figure 2.
SAMPLING_NS_PER_EDGE = 24.0

#: Fixed CPU cost per mini-batch (batch assembly, tensor slicing).
SAMPLING_US_PER_BATCH = 2500.0

#: PCIe 3.0 x16 effective host-to-device bandwidth.
PCIE_BYTES_PER_S = 12e9

#: Titan V sustained fp32 throughput on GNN layers.
GPU_FLOPS = 14.9e12 * 0.30

#: Per-batch kernel launch + synchronization overhead on the GPU side.
GPU_US_PER_BATCH = 250.0

#: The sampled GraphSAGE of Figure 2: per-layer fanouts (input layer
#: first), input features (ogbn-products') and hidden width.
FANOUTS = (15, 10, 5)
FEATURE_LEN = 100
HIDDEN_LEN = 256


@dataclass(frozen=True)
class GpuEpochBreakdown:
    """Figure 2's two bars for one batch size."""

    batch_size: int
    sampling_seconds: float
    gnn_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.sampling_seconds + self.gnn_seconds

    @property
    def sampling_share(self) -> float:
        return self.sampling_seconds / self.total_seconds


def epoch_breakdown(graph: CSRGraph, batch_size: int) -> GpuEpochBreakdown:
    """Measure the Figure-2 model's sampling work on the twin and price
    the epoch.

    Training is priced as forward + backward (~2.5x forward FLOPs).
    """
    fanouts, feature_len, hidden_len = FANOUTS, FEATURE_LEN, HIDDEN_LEN
    stats = EpochSamplingStats.collect(graph, batch_size, fanouts)

    sampling = (
        stats.sampled_edges * SAMPLING_NS_PER_EDGE * 1e-9
        + stats.num_batches * SAMPLING_US_PER_BATCH * 1e-6
    )

    # Device-side: input feature transfer + layer compute.
    transfer_bytes = stats.input_vertices * feature_len * 4.0
    widths = [feature_len] + [hidden_len] * len(fanouts)
    flops = 0.0
    # Per layer: aggregation (2 flops/edge/feature) + update GEMM.
    flops += 2.0 * stats.sampled_edges * feature_len  # first-layer gathers
    flops += 2.0 * stats.frontier_vertices * widths[0] * widths[1]
    for k in range(1, len(fanouts)):
        flops += 2.0 * stats.sampled_edges / len(fanouts) * widths[k]
        flops += 2.0 * stats.frontier_vertices / len(fanouts) * widths[k] * widths[k + 1]
    flops *= 2.5  # forward + backward
    gnn = (
        transfer_bytes / PCIE_BYTES_PER_S
        + flops / GPU_FLOPS
        + stats.num_batches * GPU_US_PER_BATCH * 1e-6
    )
    return GpuEpochBreakdown(
        batch_size=batch_size,
        sampling_seconds=sampling,
        gnn_seconds=gnn,
    )
