"""Exact DRAM-traffic and FLOP accounting per kernel variant.

Every speedup in the paper's software evaluation is a story about bytes
that do or do not cross the memory bus:

* the ``a_k`` round trip that fusion removes (Figure 5),
* the zero elements that compression strips (Section 4.3),
* the gathered vectors that a better order keeps in cache (Section 4.4).

This module counts those bytes from first principles, given the graph's
shape, the layer widths, the gather hit rate, and the feature sparsity.
The cost model then converts byte counts into time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from ..tensors.compression import traffic_ratio

BYTES_PER_FEATURE = 4  # fp32
BYTES_PER_INDEX = 4  # 32-bit column indices (idx_t in the descriptor)
BYTES_PER_FACTOR = 4  # fp32 normalization factors


@dataclass(frozen=True)
class LayerShape:
    """Static shape of one GNN layer's work.

    Attributes:
        num_vertices: |V|.
        num_edges: |E| (without self loops).
        f_in: input feature vector length.
        f_out: output feature vector length.
    """

    num_vertices: int
    num_edges: int
    f_in: int
    f_out: int

    @property
    def num_gathers(self) -> int:
        """Feature-vector gathers per aggregation: one per edge + self."""
        return self.num_edges + self.num_vertices

    @property
    def in_vector_bytes(self) -> int:
        return self.f_in * BYTES_PER_FEATURE


@dataclass
class PhaseTraffic:
    """Bytes and FLOPs of one execution phase."""

    dram_read: float = 0.0
    dram_write: float = 0.0
    flops: float = 0.0
    notes: Dict[str, float] = field(default_factory=dict)

    @property
    def dram_total(self) -> float:
        return self.dram_read + self.dram_write

    def scaled(self, factor: float) -> "PhaseTraffic":
        return PhaseTraffic(
            dram_read=self.dram_read * factor,
            dram_write=self.dram_write * factor,
            flops=self.flops * factor,
            notes=dict(self.notes),
        )

    def merged(self, other: "PhaseTraffic") -> "PhaseTraffic":
        notes = dict(self.notes)
        for key, value in other.notes.items():
            notes[key] = notes.get(key, 0.0) + value
        return PhaseTraffic(
            dram_read=self.dram_read + other.dram_read,
            dram_write=self.dram_write + other.dram_write,
            flops=self.flops + other.flops,
            notes=notes,
        )


def aggregation_traffic(
    shape: LayerShape,
    gather_hit_rate: float,
    feature_sparsity: float = 0.0,
    compressed: bool = False,
    write_a: bool = True,
) -> PhaseTraffic:
    """Traffic of the aggregation phase.

    Args:
        shape: layer shape.
        gather_hit_rate: fraction of gathered feature vectors served from
            cache (from :mod:`repro.perf.reuse`).
        feature_sparsity: zero fraction of the input feature matrix.
        compressed: apply Section 4.3 mask compression to feature traffic.
        write_a: whether the aggregation output goes to DRAM.  True for
            the unfused kernels and fused training; False for fused
            inference, whose ``a`` block lives in a reusable cache buffer
            (Figure 5c).
    """
    if not 0.0 <= gather_hit_rate <= 1.0:
        raise ValueError(f"hit rate must be in [0, 1], got {gather_hit_rate}")
    gathers = shape.num_gathers
    feature_read = gathers * (1.0 - gather_hit_rate) * shape.in_vector_bytes
    if compressed:
        feature_read *= traffic_ratio(feature_sparsity)
    index_read = shape.num_edges * BYTES_PER_INDEX
    factor_read = gathers * BYTES_PER_FACTOR
    a_bytes = shape.num_vertices * shape.in_vector_bytes
    # ψ multiply + reduction add per gathered element.
    flops = 2.0 * gathers * shape.f_in
    traffic = PhaseTraffic(
        dram_read=feature_read + index_read + factor_read,
        dram_write=a_bytes if write_a else 0.0,
        flops=flops,
    )
    traffic.notes.update(
        feature_read=feature_read,
        index_read=index_read,
        factor_read=factor_read,
        a_write=float(a_bytes if write_a else 0.0),
    )
    return traffic


def update_traffic(
    shape: LayerShape,
    feature_sparsity: float = 0.0,
    compressed: bool = False,
    fused: bool = False,
) -> PhaseTraffic:
    """Traffic of the update phase: ``h_out = ReLU(W a + b)``.

    Fused execution consumes ``a`` straight from cache, so the ``a`` read
    disappears (Figure 5b/5c).  The output ``h_out`` feeds the next
    layer's aggregation and is compressible when sparse.
    """
    a_read = 0.0 if fused else shape.num_vertices * shape.in_vector_bytes
    h_out_write = shape.num_vertices * shape.f_out * BYTES_PER_FEATURE
    if compressed:
        h_out_write *= traffic_ratio(feature_sparsity)
    flops = 2.0 * shape.num_vertices * shape.f_in * shape.f_out
    traffic = PhaseTraffic(dram_read=a_read, dram_write=h_out_write, flops=flops)
    traffic.notes.update(a_read=a_read, h_out_write=h_out_write)
    return traffic


def backward_traffic(
    shape: LayerShape,
    gather_hit_rate: float,
    feature_sparsity: float = 0.0,
    compressed: bool = False,
) -> PhaseTraffic:
    """Traffic of one layer's backward pass.

    Computes grads of ``h_{k-1}``, ``a_k``, ``W_k``, ``b_k`` (Section
    7.1.1): ReLU mask apply, two GEMMs (one more than forward), and a
    transposed aggregation that scatters ``grad_a`` back along edges.

    ReLU backward masks ``grad_pre`` with the same zeros as the forward
    activation, so the gradient streams through the GEMMs carry the
    feature sparsity and compress like the features do; ``a`` and
    ``grad_a`` are reduction outputs and stay dense.
    """
    n, f_in, f_out = shape.num_vertices, shape.f_in, shape.f_out
    bpf = BYTES_PER_FEATURE
    ratio = traffic_ratio(feature_sparsity) if compressed else 1.0
    # grad_W = a^T grad_pre : read a (dense) + grad_pre (sparse, streamed).
    gemm_reads = n * f_in * bpf + n * f_out * bpf * ratio
    # grad_a = grad_pre W^T : write grad_a (dense reduction output).
    grad_a_write = n * f_in * bpf
    # Transposed aggregation: gather grad_a along reverse edges.
    gathers = shape.num_gathers
    grad_gather = gathers * (1.0 - gather_hit_rate) * f_in * bpf
    index_read = shape.num_edges * BYTES_PER_INDEX
    factor_read = gathers * BYTES_PER_FACTOR
    grad_h_write = n * f_in * bpf * ratio
    flops = 2.0 * (2.0 * n * f_in * f_out) + 2.0 * gathers * f_in + n * f_out
    elementwise_read = 2.0 * n * f_out * bpf
    elementwise_write = ratio * n * f_out * bpf
    traffic = PhaseTraffic(
        dram_read=elementwise_read + gemm_reads + grad_gather + index_read + factor_read,
        dram_write=elementwise_write + grad_a_write + grad_h_write,
        flops=flops,
    )
    traffic.notes.update(
        grad_gather=grad_gather,
        gemm_reads=gemm_reads,
        grad_a_write=grad_a_write,
        grad_h_write=grad_h_write,
    )
    return traffic


def decompress_elements(shape: LayerShape, compressed: bool) -> float:
    """Feature elements run through mask expand/compress per aggregation.

    Every gathered vector is decompressed lane-by-lane regardless of its
    sparsity (the expand instruction touches all lanes), which is why
    compression *costs* time at low sparsity (Figure 14's 10% points).
    """
    if not compressed:
        return 0.0
    return float(shape.num_gathers) * shape.f_in


def compressed_effective_feature_len(f_in: int, traffic_ratio: float) -> int:
    """Feature length whose dense rows move what compressed rows move.

    Used to drive the line-granular cache simulator with a compressed
    working set: a dense run at this width approximates the compressed
    run's byte traffic (exact only when the scaled row still fills whole
    cache lines — the simulator cannot move a fraction of a line).
    """
    if not 0.0 < traffic_ratio <= 1.0 + 1e-9:
        raise ValueError(f"traffic ratio must be in (0, 1], got {traffic_ratio}")
    return max(1, int(math.ceil(f_in * traffic_ratio)))
