"""Per-span analytic predictions — the perf-side glue of attribution.

The observability layer (:mod:`repro.obs.attrib`) joins each traced
kernel span with the *analytic* story the paper tells about it: how many
DRAM bytes the variant should move (:mod:`repro.perf.traffic`) and
whether that makes the span memory- or compute-bound on the modeled
machine (the Figure 3 / Table 4 verdict).  This module turns one span
record — name, ``vertices``/``edges``/``features`` attributes, measured
``KernelStats`` counters — into those predictions, without touching the
tracer itself, so the perf plane stays importable on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .cost_model import AGGREGATION_COMPUTE_EFFICIENCY, VARIANTS, VariantSpec
from .machine import MachineConfig, cascade_lake_28
from .traffic import (
    LayerShape,
    PhaseTraffic,
    aggregation_traffic,
    decompress_elements,
    update_traffic,
)

#: Traced span name -> cost-model variant it executes.
SPAN_VARIANTS: Dict[str, str] = {
    "kernel.mkl": "mkl",
    "kernel.basic": "basic",
    # The backward aggregation (Âᵀ grad_a) has the basic kernel's shape:
    # same gather-reduce structure over the transposed adjacency, so the
    # same traffic/compute model prices it and backward spans get
    # attribution rows of their own.
    "kernel.backward.basic": "basic",
    "kernel.fusion": "fusion",
    "kernel.compression": "compression",
    "kernel.combined": "combined",
}

@dataclass(frozen=True)
class SpanWorkload:
    """The analytic shape of the work one kernel span performed."""

    variant: str
    shape: LayerShape
    f_out: Optional[int]  # update width for fused spans, else None
    write_a: bool  # aggregation output goes to DRAM (Figure 5)
    fused: bool
    compressed: bool

    @property
    def spec(self) -> VariantSpec:
        return VARIANTS[self.variant]


def workload_from_span(record: Dict[str, Any]) -> Optional[SpanWorkload]:
    """Recover the workload shape of one traced kernel-span record.

    Returns None for spans that are not kernel invocations (epochs,
    layers, workers, sim spans).  ``edges`` falls back to the measured
    ``gathers`` counter minus the vertex count (one gather per edge plus
    the self contribution) for traces written before the ``edges``
    attribute existed.
    """
    variant = SPAN_VARIANTS.get(record.get("name", ""))
    if variant is None:
        return None
    attrs = record.get("attrs") or {}
    counters = record.get("counters") or {}
    vertices = attrs.get("vertices")
    f_in = attrs.get("features")
    if vertices is None or f_in is None:
        return None
    vertices = int(vertices)
    f_in = int(f_in)
    edges = attrs.get("edges")
    if edges is None:
        gathers = counters.get("gathers")
        if gathers is None:
            return None
        edges = int(gathers) - vertices
    edges = max(0, int(edges))

    spec = VARIANTS[variant]
    f_out: Optional[int] = None
    if spec.fused:
        f_out = attrs.get("features_out")
        if f_out is None:
            # Legacy traces: solve flops = 2*gathers*f_in + 2*n*f_in*f_out.
            flops = counters.get("flops", 0.0)
            gathers = counters.get("gathers", edges + vertices)
            gemm_flops = flops - 2.0 * gathers * f_in
            if vertices > 0 and f_in > 0 and gemm_flops > 0:
                f_out = max(1, int(round(gemm_flops / (2.0 * vertices * f_in))))
        if f_out is not None:
            f_out = int(f_out)
    # Fused inference keeps ``a`` in a reusable cache buffer (Figure 5c);
    # training — and every unfused kernel — writes it to DRAM.
    write_a = bool(attrs.get("keep_aggregation", True)) or not spec.fused
    shape = LayerShape(
        num_vertices=vertices,
        num_edges=edges,
        f_in=f_in,
        f_out=f_out if f_out is not None else f_in,
    )
    return SpanWorkload(
        variant=variant,
        shape=shape,
        f_out=f_out,
        write_a=write_a,
        fused=spec.fused,
        compressed=spec.compressed,
    )


def predict_phase_traffic(
    workload: SpanWorkload,
    hit_rate: float,
    sparsity: float = 0.0,
) -> Dict[str, PhaseTraffic]:
    """Analytic DRAM traffic of the span, keyed by execution phase."""
    phases = {
        "aggregation": aggregation_traffic(
            workload.shape,
            gather_hit_rate=hit_rate,
            feature_sparsity=sparsity,
            compressed=workload.compressed,
            write_a=workload.write_a,
        )
    }
    if workload.fused:
        phases["update"] = update_traffic(
            workload.shape,
            feature_sparsity=sparsity,
            compressed=workload.compressed,
            fused=True,
        )
    return phases


def predict_phase_times(
    workload: SpanWorkload,
    phases: Dict[str, PhaseTraffic],
    machine: Optional[MachineConfig] = None,
) -> Tuple[float, float]:
    """(memory_seconds, compute_seconds) the machine model assigns.

    The larger side is the bottleneck: the same comparison the cost model
    uses to decide whether a phase runs at the bandwidth limit or the
    FLOP limit (DESIGN.md §7's timing law, applied to a measured span).
    """
    machine = machine or cascade_lake_28()
    bw_eff = workload.spec.bw_efficiency(machine)
    total_bytes = sum(t.dram_total for t in phases.values())
    memory_s = machine.stream_time(total_bytes, bw_eff)
    agg = phases["aggregation"]
    compute_s = agg.flops / (machine.peak_flops * AGGREGATION_COMPUTE_EFFICIENCY)
    compute_s += decompress_elements(workload.shape, workload.compressed) / (
        machine.cores * machine.frequency_hz * machine.decompress_elements_per_cycle
    )
    update = phases.get("update")
    if update is not None:
        compute_s += machine.gemm_time(update.flops, small=True)
    return memory_s, compute_s


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
