"""Analytical cost model: byte counts + machine model -> phase times.

This is the *time plane* for the software evaluation (Figures 11, 13, 14,
15 and Tables 3-4).  It converts the exact traffic counts of
:mod:`repro.perf.traffic` into seconds using the machine constants of
:mod:`repro.perf.machine`, with three structural rules taken straight
from the paper:

1. unfused execution serializes the memory-bound aggregation and the
   compute-bound update (Figure 5a): ``t = t_agg + t_upd``;
2. fused execution overlaps them (Figure 4): ``t = max(t_mem, t_cpu)``
   plus a small residual for the imperfect natural overlap;
3. gather hit rates come from the reuse-distance profile of the actual
   processing order on the actual graph, evaluated at the machine's
   scaled cache capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.datasets import PAPER_HIDDEN_FEATURES, SPECS
from ..graphs.reorder import locality_order, natural_order, randomized_order
from .machine import MachineConfig, cascade_lake_28
from .reuse import ReuseProfile, reuse_profile
from .traffic import (
    LayerShape,
    PhaseTraffic,
    aggregation_traffic,
    backward_traffic,
    decompress_elements,
    update_traffic,
)

#: Sustained fraction of peak FLOPs the scalar-ish aggregation loop reaches
#: (gathers and reductions, not FMA-dense).
AGGREGATION_COMPUTE_EFFICIENCY = 0.20

#: Residual serialization when fusing: the fraction of the shorter phase
#: not hidden by the natural (unsynchronized) overlap of Figure 4.
FUSION_OVERLAP_RESIDUAL = 0.08


@dataclass(frozen=True)
class VariantSpec:
    """One execution strategy from the paper's evaluation."""

    name: str
    fused: bool = False
    compressed: bool = False
    order: str = "natural"  # natural | locality | randomized
    bw_efficiency_key: str = "stream_bw_efficiency"

    def bw_efficiency(self, machine: MachineConfig) -> float:
        return getattr(machine, self.bw_efficiency_key)


VARIANTS: Dict[str, VariantSpec] = {
    "distgnn": VariantSpec("distgnn", bw_efficiency_key="baseline_bw_efficiency"),
    "mkl": VariantSpec("mkl", bw_efficiency_key="mkl_bw_efficiency"),
    "basic": VariantSpec("basic"),
    "fusion": VariantSpec("fusion", fused=True),
    "compression": VariantSpec("compression", compressed=True),
    "combined": VariantSpec("combined", fused=True, compressed=True),
    "c-locality": VariantSpec(
        "c-locality", fused=True, compressed=True, order="locality"
    ),
    "f-locality": VariantSpec("f-locality", fused=True, order="locality"),
    "randomized": VariantSpec(
        "randomized", fused=True, compressed=True, order="randomized"
    ),
}


@dataclass(frozen=True)
class KernelCost:
    """One kernel pass priced by the phase law (DESIGN.md §7).

    The aggregation phase, and the small-GEMM update a fused kernel runs
    in the same pass, with the DRAM traffic each moves and the seconds
    the machine model gives them: one memory stream over every phase at
    the variant's bandwidth efficiency, and a compute side that sums the
    gather loop, the fused update and the serial mask expand.
    """

    phases: Dict[str, PhaseTraffic]  # "aggregation" (+ "update" if fused)
    memory_s: float
    gather_s: float
    update_s: float
    expand_s: float

    @property
    def compute_s(self) -> float:
        return self.gather_s + self.update_s + self.expand_s


def kernel_cost(
    machine: MachineConfig,
    variant: VariantSpec,
    shape: LayerShape,
    hit_rate: float,
    sparsity: float = 0.0,
    write_a: bool = True,
) -> KernelCost:
    """Price one pass of ``variant``'s kernel over ``shape``.

    ``hit_rate`` is the fraction of gathers served from cache (the reuse
    profile's, or a caller's); ``write_a`` sends the aggregation output
    to DRAM — every unfused kernel and fused training, not fused
    inference (Figure 5c).  The mask expand runs serially after each
    gather: its latency adds to the critical path instead of hiding
    under it, which is why compression *loses* at low sparsity
    (Figure 14, 10% points).
    """
    aggregation = aggregation_traffic(
        shape,
        gather_hit_rate=hit_rate,
        feature_sparsity=sparsity,
        compressed=variant.compressed,
        write_a=write_a,
    )
    phases = {"aggregation": aggregation}
    update_s = 0.0
    dram_bytes = aggregation.dram_total
    if variant.fused:
        update = phases["update"] = update_traffic(
            shape,
            feature_sparsity=sparsity,
            compressed=variant.compressed,
            fused=True,
        )
        update_s = machine.gemm_time(update.flops, small=True)
        dram_bytes += update.dram_total
    return KernelCost(
        phases=phases,
        memory_s=machine.stream_time(dram_bytes, variant.bw_efficiency(machine)),
        gather_s=aggregation.flops
        / (machine.peak_flops * AGGREGATION_COMPUTE_EFFICIENCY),
        update_s=update_s,
        expand_s=decompress_elements(shape, variant.compressed)
        / (
            machine.cores
            * machine.frequency_hz
            * machine.decompress_elements_per_cycle
        ),
    )


@dataclass
class PhaseTimes:
    """Timing decomposition of one layer pass."""

    aggregation: float
    update: float
    total: float
    memory_time: float
    compute_time: float
    dram_bytes: float
    flops: float

    @property
    def memory_bound_fraction(self) -> float:
        """Fraction of the pass spent limited by memory."""
        if self.total <= 0:
            return 0.0
        return min(1.0, self.memory_time / self.total)


@dataclass
class WorkloadTimes:
    """End-to-end times for an inference pass or a training epoch."""

    variant: str
    layer_times: Tuple[PhaseTimes, ...]
    backward_times: Tuple[PhaseTimes, ...] = ()

    @property
    def total(self) -> float:
        forward = sum(t.total for t in self.layer_times)
        backward = sum(t.total for t in self.backward_times)
        return forward + backward

    @property
    def dram_bytes(self) -> float:
        return sum(t.dram_bytes for t in self.layer_times) + sum(
            t.dram_bytes for t in self.backward_times
        )

    @property
    def flops(self) -> float:
        return sum(t.flops for t in self.layer_times) + sum(
            t.flops for t in self.backward_times
        )


def scaled_capacity_vectors(
    machine: MachineConfig,
    dataset_name: str,
    num_vertices: int,
    mean_degree: float = 16.0,
) -> float:
    """Cache capacity in feature vectors, scaled to a twin graph.

    The paper graph's feature matrix is ``paper_vertices * 256 * 4`` bytes;
    the machine caches hold ``feature_cache_bytes``.  Keeping the ratio
    constant, the twin's capacity is the same *fraction of vertices*.

    The result is floored at a few adjacency lists: reuse granularity is
    one vertex's neighborhood, and neighborhood size does not shrink when
    the graph is scaled down, so a capacity below ~2.5x the mean degree
    would under-represent even the degree-granular reuse the real machine
    always captures.
    """
    spec = SPECS.get(dataset_name)
    if spec is None:
        # Unknown graph: fall back to the products ratio.
        spec = SPECS["products"]
    paper_matrix = spec.paper_vertices * 1e6 * PAPER_HIDDEN_FEATURES * 4.0
    fraction = machine.feature_cache_bytes / paper_matrix
    return max(2.5 * mean_degree, fraction * num_vertices)


class CostModel:
    """Per-graph cost model shared by the figure-11/13/14/15 benches.

    Args:
        graph: the (twin) input graph.
        machine: platform model; defaults to the paper's 28-core server.
        capacity_vectors: gather-cache capacity in feature vectors; when
            None it is derived from the graph name via
            :func:`scaled_capacity_vectors`.
    """

    def __init__(
        self,
        graph: CSRGraph,
        machine: Optional[MachineConfig] = None,
        capacity_vectors: Optional[float] = None,
    ) -> None:
        self.graph = graph
        self.machine = machine or cascade_lake_28()
        if capacity_vectors is None:
            mean_degree = float(graph.num_edges / max(1, graph.num_vertices))
            capacity_vectors = scaled_capacity_vectors(
                self.machine, graph.name, graph.num_vertices, mean_degree
            )
        self.capacity_vectors = capacity_vectors
        self._profiles: Dict[str, ReuseProfile] = {}

    # ------------------------------------------------------------------
    # Reuse / hit rates
    # ------------------------------------------------------------------
    def _order_array(self, order: str, seed: int = 0) -> np.ndarray:
        if order == "natural":
            return natural_order(self.graph)
        if order == "locality":
            return locality_order(self.graph)
        if order == "randomized":
            return randomized_order(self.graph, seed=seed)
        raise ValueError(f"unknown order {order!r}")

    def profile(self, order: str, seed: int = 0) -> ReuseProfile:
        key = f"{order}:{seed}" if order == "randomized" else order
        if key not in self._profiles:
            self._profiles[key] = reuse_profile(
                self.graph, self._order_array(order, seed)
            )
        return self._profiles[key]

    def hit_rate(self, order: str, seed: int = 0) -> float:
        return self.profile(order, seed).hit_rate(self.capacity_vectors)

    # ------------------------------------------------------------------
    # Phase timing
    # ------------------------------------------------------------------
    def layer_forward(
        self,
        variant: VariantSpec,
        shape: LayerShape,
        sparsity: float = 0.0,
        training: bool = False,
        hit_rate: Optional[float] = None,
    ) -> PhaseTimes:
        """Time one layer's forward pass under a variant.

        The aggregation (and a fused variant's update) is
        :func:`kernel_cost`'s; an unfused variant adds the separate
        update GEMM, which reads ``a`` back from DRAM.
        """
        machine = self.machine
        if hit_rate is None:
            hit_rate = self.hit_rate(variant.order)
        cost = kernel_cost(
            machine, variant, shape, hit_rate, sparsity,
            write_a=training or not variant.fused,
        )
        agg, expand = cost.phases["aggregation"], cost.expand_s
        if variant.fused:
            upd, mem = cost.phases["update"], cost.memory_s
            cpu = cost.gather_s + cost.update_s
            total = max(mem, cpu) + FUSION_OVERLAP_RESIDUAL * min(mem, cpu) + expand
            agg_mem = machine.stream_time(
                agg.dram_total, variant.bw_efficiency(machine)
            )
            return PhaseTimes(
                aggregation=max(agg_mem, cost.gather_s) + expand,
                update=cost.update_s,
                total=total,
                memory_time=mem,
                compute_time=cost.compute_s,
                dram_bytes=agg.dram_total + upd.dram_total,
                flops=agg.flops + upd.flops,
            )
        upd = update_traffic(
            shape,
            feature_sparsity=sparsity,
            compressed=variant.compressed,
            fused=False,
        )
        upd_mem = machine.stream_time(upd.dram_total, machine.stream_bw_efficiency)
        t_agg = max(cost.memory_s, cost.gather_s) + expand
        t_upd = max(upd_mem, machine.gemm_time(upd.flops))
        return PhaseTimes(
            aggregation=t_agg,
            update=t_upd,
            total=t_agg + t_upd,
            memory_time=cost.memory_s + upd_mem,
            compute_time=cost.compute_s + machine.gemm_time(upd.flops),
            dram_bytes=agg.dram_total + upd.dram_total,
            flops=agg.flops + upd.flops,
        )

    def layer_backward(
        self,
        variant: VariantSpec,
        shape: LayerShape,
        sparsity: float = 0.0,
        hit_rate: Optional[float] = None,
        needs_input_grad: bool = True,
    ) -> PhaseTimes:
        """Time one layer's backward pass.

        Backward is not fused in the paper; variants differ through their
        gather efficiency, the processing order (locality helps the
        transposed aggregation too), and gradient-stream compression.

        ``needs_input_grad=False`` (the first layer: input features are
        not trainable) drops the transposed aggregation entirely.
        """
        machine = self.machine
        if hit_rate is None:
            hit_rate = self.hit_rate(variant.order)
        bw_eff = variant.bw_efficiency(machine)
        back = backward_traffic(
            shape,
            gather_hit_rate=hit_rate if needs_input_grad else 1.0,
            feature_sparsity=sparsity,
            compressed=variant.compressed,
        )
        if not needs_input_grad:
            # No dL/dh_in: remove the transposed gather and grad_h write.
            removed = back.notes["grad_gather"] + back.notes["grad_h_write"]
            back.dram_read -= back.notes["grad_gather"]
            back.dram_write -= back.notes["grad_h_write"]
            back.notes["grad_gather"] = 0.0
            back.notes["grad_h_write"] = 0.0
            back.flops -= 2.0 * shape.num_gathers * shape.f_in
            del removed
        gemm_flops = 2.0 * (2.0 * shape.num_vertices * shape.f_in * shape.f_out)
        agg_flops = back.flops - gemm_flops
        agg_share = back.notes["grad_gather"] + back.notes["grad_h_write"]
        mem_time = machine.stream_time(back.dram_total, bw_eff)
        cpu_time = machine.gemm_time(gemm_flops) + agg_flops / (
            machine.peak_flops * AGGREGATION_COMPUTE_EFFICIENCY
        )
        # Backward gathers grad_a, which is dense; only the sparse
        # grad_pre streams pass through mask expand/compress, a streaming
        # (prefetchable) cost far smaller than the forward gather expand.
        expand = 0.0
        if variant.compressed:
            expand = (2.0 * shape.num_vertices * shape.f_out) / (
                machine.cores
                * machine.frequency_hz
                * machine.decompress_elements_per_cycle
            )
        # Fused variants block the backward the same way (Algorithm 2
        # applies to both passes — "we apply these software-hardware
        # optimizations to both inference and training"), overlapping the
        # gradient GEMMs with the transposed gather.
        residual = FUSION_OVERLAP_RESIDUAL if variant.fused else 0.25
        total = max(mem_time, cpu_time) + residual * min(mem_time, cpu_time) + expand
        agg_time = total * (agg_share / back.dram_total if back.dram_total else 0.5)
        return PhaseTimes(
            aggregation=agg_time,
            update=total - agg_time,
            total=total,
            memory_time=mem_time,
            compute_time=cpu_time,
            dram_bytes=back.dram_total,
            flops=back.flops,
        )

    # ------------------------------------------------------------------
    # End-to-end workloads
    # ------------------------------------------------------------------
    def layer_shapes(self, f_input: int, f_hidden: int):
        """Layer shapes of the paper's evaluated network: two layers."""
        widths = [f_input, f_hidden, f_hidden]
        return [
            LayerShape(
                num_vertices=self.graph.num_vertices,
                num_edges=self.graph.num_edges,
                f_in=widths[k],
                f_out=widths[k + 1],
            )
            for k in range(2)
        ]

    def inference_time(
        self,
        variant_name: str,
        f_input: int,
        f_hidden: int,
        sparsity: float = 0.0,
    ) -> WorkloadTimes:
        variant = VARIANTS[variant_name]
        hit = self.hit_rate(variant.order)
        layers = tuple(
            self.layer_forward(variant, shape, sparsity, training=False, hit_rate=hit)
            for shape in self.layer_shapes(f_input, f_hidden)
        )
        return WorkloadTimes(variant=variant_name, layer_times=layers)

    def training_epoch_time(
        self,
        variant_name: str,
        f_input: int,
        f_hidden: int,
        sparsity: float = 0.0,
        seed: int = 0,
    ) -> WorkloadTimes:
        variant = VARIANTS[variant_name]
        hit = self.hit_rate(variant.order, seed)
        shapes = self.layer_shapes(f_input, f_hidden)
        forward = tuple(
            self.layer_forward(variant, shape, sparsity, training=True, hit_rate=hit)
            for shape in shapes
        )
        backward = tuple(
            self.layer_backward(
                variant,
                shape,
                sparsity,
                hit_rate=hit,
                needs_input_grad=(idx > 0),
            )
            for idx, shape in enumerate(shapes)
        )
        return WorkloadTimes(
            variant=variant_name, layer_times=forward, backward_times=backward
        )

    def speedup(
        self,
        variant_name: str,
        f_input: int,
        f_hidden: int,
        training: bool = False,
        sparsity: float = 0.0,
        baseline: str = "distgnn",
    ) -> float:
        """Speedup of a variant over a baseline, paper-figure style."""

        def total(name: str) -> float:
            if training:
                return self.training_epoch_time(
                    name, f_input, f_hidden, sparsity=sparsity).total
            return self.inference_time(
                name, f_input, f_hidden, sparsity=sparsity).total

        return total(baseline) / total(variant_name)
