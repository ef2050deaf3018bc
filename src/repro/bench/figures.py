"""Per-artifact experiment definitions (one function per table/figure).

Each function takes a :class:`BenchContext`, reproduces one paper
artifact end-to-end on the dataset twins and returns an
:class:`repro.bench.harness.Experiment` with the published values
alongside.  :data:`PLAN` lists every artifact once, in report order:
``repro experiment NAME`` runs one entry, ``benchmarks/run_all.py`` runs
them all and checks their shape criteria (``benchmarks/criteria.py``).

Scale: one number, ``BenchContext.scale`` (``--scale``; EXPERIMENTS.md
is generated at :data:`SOFTWARE_SCALE`).  The software-model
experiments (Fig. 2/3/11/13/14/15, Tables 3-4) build their twins at it.
The trace-driven hardware experiments (Fig. 12/16, Table 5, Section
7.3.2) simulate every cache-line access in Python, so they build theirs
at ``ctx.hardware_scale``, a fixed fraction of it (0.15 at 0.5) —
mirroring the paper, whose own "hardware evaluation is limited to
products and wikipedia due to very long simulation times" (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.datasets import input_feature_size, load_dataset
from ..graphs.reorder import apply_order, locality_order
from ..kernels.base import UpdateParams
from ..perf.cost_model import VARIANTS, CostModel
from ..perf.machine import cascade_lake_28
from ..perf.topdown import characterize
from ..perf.traffic import LayerShape
from ..dma.offload import DmaOffloadRunner
from ..gpu.gpu_model import epoch_breakdown
from ..sim.core_sim import CoreAggregationSim
from ..graphs.stats import graph_stats
from . import paper_values as paper
from .harness import Experiment

#: Default twin scale: the analytical (software) experiments' twins, and
#: the scale EXPERIMENTS.md is generated at.
SOFTWARE_SCALE = 0.5

#: Twin scale of the trace-driven (hardware) experiments at
#: ``SOFTWARE_SCALE``; it moves in proportion with ``BenchContext.scale``.
HARDWARE_SCALE = 0.15

#: Feature width used in the hardware simulations (kept modest so the
#: line-accurate Python simulation finishes quickly).
HARDWARE_FEATURES = 128

#: Cache shrink factor for hardware twins: the same ratio argument as the
#: analytical plane — caches shrink with the workload.
HARDWARE_CACHE_SCALE = 0.002

HIDDEN_FEATURES = 256
EVAL_SPARSITY = 0.5
SOFTWARE_VARIANTS = ("mkl", "basic", "fusion", "compression", "combined")


@dataclass
class BenchContext:
    """Caches graphs and cost models across experiments."""

    scale: float = SOFTWARE_SCALE
    seed: int = 0
    _graphs: Dict[Tuple[str, float], CSRGraph] = field(default_factory=dict)
    _models: Dict[str, CostModel] = field(default_factory=dict)

    @property
    def hardware_scale(self) -> float:
        """Twin scale of the simulated (hardware) experiments."""
        return HARDWARE_SCALE * (self.scale / SOFTWARE_SCALE)

    def graph(self, name: str, hardware: bool = False) -> CSRGraph:
        scale = self.hardware_scale if hardware else self.scale
        if (name, scale) not in self._graphs:
            self._graphs[name, scale] = load_dataset(name, scale=scale, seed=self.seed)
        return self._graphs[name, scale]

    def cost_model(self, name: str) -> CostModel:
        if name not in self._models:
            self._models[name] = CostModel(self.graph(name))
        return self._models[name]

    def f_input(self, name: str) -> int:
        return input_feature_size(name, 1.0)


# ----------------------------------------------------------------------
# Motivation
# ----------------------------------------------------------------------
#: Mini-batch sizes scale with the twin: the paper's 1024/2048/4096 on
#: 2.45M vertices keep the same batches-per-epoch ratio as these on the
#: ~2-4k vertex twin.
FIG2_BATCH_MAP = {1024: 32, 2048: 64, 4096: 128}


def fig2_gpu_sampling(ctx: BenchContext) -> Experiment:
    """Figure 2: sampled-GNN GPU training epoch breakdown.

    Absolute seconds are not comparable across a 1000x graph-scale gap,
    so the rows report the two *shape* facts of the figure: sampling's
    share of epoch time (>80% in the paper) and the epoch time relative
    to batch-1024 (smaller batches are slower).
    """
    exp = Experiment("fig2", "Sampled GraphSAGE on GPU: epoch time breakdown")
    graph = ctx.graph("products")
    breakdowns = {
        batch: epoch_breakdown(graph, batch_size=FIG2_BATCH_MAP[batch])
        for batch in (1024, 2048, 4096)
    }
    reference_total = breakdowns[1024].total_seconds
    for batch, result in breakdowns.items():
        pub = paper.FIG2_GPU_SAMPLING[batch]
        pub_total = pub["sampling"] + pub["gnn"]
        exp.add(
            f"batch-{batch} sampling share",
            result.sampling_share,
            pub["sampling"] / pub_total,
            unit="frac",
        )
        exp.add(
            f"batch-{batch} epoch time (norm.)",
            result.total_seconds / reference_total,
            pub_total / (paper.FIG2_GPU_SAMPLING[1024]["sampling"]
                         + paper.FIG2_GPU_SAMPLING[1024]["gnn"]),
            unit="frac",
        )
    exp.note("batch sizes scaled with the twin (1024->32 etc.); shapes compared")
    return exp


def fig3_topdown(ctx: BenchContext) -> Experiment:
    """Figure 3: pipeline-slot breakdown of the DGL/DistGNN baseline."""
    exp = Experiment("fig3", "Pipeline slots of full-batch SAGE training (baseline)")
    model = ctx.cost_model("products")
    report = characterize(
        model, "distgnn", ctx.f_input("products"), HIDDEN_FEATURES, training=True,
        sparsity=EVAL_SPARSITY,
    )
    exp.add("retiring", report.retiring, paper.FIG3_TOPDOWN["retiring"], "frac")
    exp.add("frontend bound", report.frontend_bound, paper.FIG3_TOPDOWN["frontend_bound"], "frac")
    exp.add("core bound", report.core_bound, paper.FIG3_TOPDOWN["core_bound"], "frac")
    exp.add("memory bound", report.memory_bound, paper.FIG3_TOPDOWN["memory_bound"], "frac")
    return exp


def tab3_datasets(ctx: BenchContext) -> Experiment:
    """Table 3: dataset statistics of the twins vs the originals."""
    exp = Experiment("tab3", "Dataset twins vs Table 3 (mean degree preserved)")
    for name in ("products", "wikipedia", "papers", "twitter"):
        stats = graph_stats(ctx.graph(name))
        exp.add(
            f"{name} mean degree",
            stats.mean_degree,
            paper.TAB3_DATASETS[name]["mean_degree"],
            unit="deg",
        )
        exp.add(f"{name} vertices (twin)", stats.num_vertices, None, unit="")
        exp.add(f"{name} edges (twin)", stats.num_edges, None, unit="")
    exp.note("twins preserve degree shape, not absolute size (see DESIGN.md)")
    return exp


# ----------------------------------------------------------------------
# Software evaluation
# ----------------------------------------------------------------------
def fig11_software_speedups(
    ctx: BenchContext,
    training: bool = False,
    gnn: str = "gcn",
) -> Experiment:
    """Figure 11: software speedups over DistGNN (inference or training)."""
    which = "training" if training else "inference"
    exp = Experiment(
        "fig11b" if training else "fig11a",
        f"Software speedups over DistGNN, {gnn.upper()} {which} @50% sparsity",
    )
    published = (paper.FIG11B_TRAINING if training else paper.FIG11A_INFERENCE)[gnn]
    variants = list(SOFTWARE_VARIANTS) + (["c-locality"] if training else [])
    for name in ("products", "wikipedia", "papers", "twitter"):
        model = ctx.cost_model(name)
        for variant in variants:
            speedup = model.speedup(
                variant,
                ctx.f_input(name),
                HIDDEN_FEATURES,
                training=training,
                sparsity=EVAL_SPARSITY,
            )
            exp.add(f"{name} {variant}", speedup, published[name].get(variant))
    return exp


def fig13_fusion_breakdown(ctx: BenchContext) -> Experiment:
    """Figure 13: basic agg/update split and fused time, GCN hidden layers."""
    exp = Experiment(
        "fig13", "Hidden-layer time breakdown, normalized to basic (GCN)"
    )
    for name in ("products", "wikipedia", "papers", "twitter"):
        model = ctx.cost_model(name)
        graph = ctx.graph(name)
        shape = LayerShape(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            f_in=HIDDEN_FEATURES,
            f_out=HIDDEN_FEATURES,
        )
        hit = model.hit_rate("natural")
        basic = model.layer_forward(VARIANTS["basic"], shape, hit_rate=hit)
        fused_inf = model.layer_forward(
            VARIANTS["fusion"], shape, training=False, hit_rate=hit
        )
        fused_train = model.layer_forward(
            VARIANTS["fusion"], shape, training=True, hit_rate=hit
        )
        pub = paper.FIG13_FUSION_BREAKDOWN[name]
        exp.add(
            f"{name} basic aggregation share",
            basic.aggregation / basic.total,
            pub["aggregation"],
            unit="frac",
        )
        exp.add(
            f"{name} basic update share",
            basic.update / basic.total,
            pub["update"],
            unit="frac",
        )
        exp.add(
            f"{name} fused inference (norm.)",
            fused_inf.total / basic.total,
            pub["fused_inference"],
            unit="frac",
        )
        exp.add(
            f"{name} fused fwd-training (norm.)",
            fused_train.total / basic.total,
            pub["fused_training"],
            unit="frac",
        )
    return exp


def fig14_compression_sweep(
    ctx: BenchContext, training: bool = False
) -> Experiment:
    """Figure 14: compression speedup over basic across sparsities."""
    which = "training" if training else "inference"
    exp = Experiment("fig14", f"compression over basic vs sparsity, GCN {which}")
    published = paper.FIG14_COMPRESSION[which]
    for name in ("products", "wikipedia", "papers", "twitter"):
        model = ctx.cost_model(name)
        for sparsity in (0.1, 0.3, 0.5, 0.7, 0.9):
            speedup = model.speedup(
                "compression",
                ctx.f_input(name),
                HIDDEN_FEATURES,
                training=training,
                sparsity=sparsity,
                baseline="basic",
            )
            exp.add(
                f"{name} @{int(sparsity * 100)}%",
                speedup,
                published[name][sparsity],
            )
    return exp


def fig15_locality(ctx: BenchContext) -> Experiment:
    """Figure 15: combined and c-locality over the randomized average."""
    exp = Experiment("fig15", "Speedup over randomized order, GCN training")
    for name in ("products", "wikipedia", "papers", "twitter"):
        model = ctx.cost_model(name)
        f_in = ctx.f_input(name)
        # 5-run randomized average (the paper's reference point).
        random_times = [
            model.training_epoch_time(
                "randomized", f_in, HIDDEN_FEATURES, sparsity=EVAL_SPARSITY, seed=s
            ).total
            for s in range(5)
        ]
        randomized = float(np.mean(random_times))
        combined = model.training_epoch_time(
            "combined", f_in, HIDDEN_FEATURES, sparsity=EVAL_SPARSITY
        ).total
        loc = model.training_epoch_time(
            "c-locality", f_in, HIDDEN_FEATURES, sparsity=EVAL_SPARSITY
        ).total
        pub = paper.FIG15_LOCALITY[name]
        exp.add(f"{name} combined", randomized / combined, pub["combined"])
        exp.add(f"{name} locality", randomized / loc, pub["locality"])
    return exp


def tab4_characterization(ctx: BenchContext) -> Experiment:
    """Table 4: memory characterization of GCN training."""
    exp = Experiment("tab4", "GCN training characterization (key columns)")
    for name in ("products", "wikipedia", "papers", "twitter"):
        model = ctx.cost_model(name)
        for variant in ("distgnn", "mkl", "combined", "c-locality"):
            report = characterize(
                model, variant, ctx.f_input(name), HIDDEN_FEATURES,
                training=True, sparsity=EVAL_SPARSITY,
            )
            pub = paper.TAB4_CHARACTERIZATION[name][variant]
            exp.add(f"{name} {variant} retiring", report.retiring, pub["retiring"], "frac")
            exp.add(
                f"{name} {variant} memory-bound",
                report.memory_bound,
                pub["memory_bound"],
                "frac",
            )
            exp.add(
                f"{name} {variant} DRAM-BW-bound",
                report.dram_bandwidth_bound,
                pub["dram_bw"],
                "frac",
            )
            exp.add(
                f"{name} {variant} fill-buffer-full",
                report.fill_buffer_full,
                pub["fill_full"],
                "frac",
            )
    return exp


# ----------------------------------------------------------------------
# Hardware evaluation (trace-driven)
# ----------------------------------------------------------------------
def _core_sim(graph: CSRGraph, fused: bool = False):
    """The cores aggregate (unfused, or fused with the update)."""
    return CoreAggregationSim(cache_scale=HARDWARE_CACHE_SCALE).run(
        graph, HARDWARE_FEATURES,
        fused_update_features=HARDWARE_FEATURES if fused else None,
    )


def _dma_sim(graph: CSRGraph, fused: bool = True, tracking_entries=None):
    """The DMA engine aggregates (fused: the cores run the update
    meanwhile); the simulators price shapes, so the values are zeros."""
    f = HARDWARE_FEATURES
    params = UpdateParams(
        weight=np.zeros((f, f), dtype=np.float32),
        bias=np.zeros(f, dtype=np.float32),
    ) if fused else None
    runner = DmaOffloadRunner(
        cache_scale=HARDWARE_CACHE_SCALE, tracking_entries=tracking_entries
    )
    h = np.zeros((graph.num_vertices, f), dtype=np.float32)
    return runner.run_layer(graph, h, params=params)[2]


def fig12_dma_speedups(
    ctx: BenchContext, training: bool = False
) -> Experiment:
    """Figure 12: simulated speedups of fusion and fusion+DMA over DistGNN."""
    which = "training" if training else "inference"
    exp = Experiment(
        "fig12b" if training else "fig12a",
        f"Simulated {which} speedup over DistGNN (products & wikipedia twins)",
    )
    published = (paper.FIG12B_DMA_TRAINING if training else paper.FIG12A_DMA_INFERENCE)["gcn"]
    machine = cascade_lake_28()
    for name in ("products", "wikipedia"):
        graph = ctx.graph(name, hardware=True)
        # DistGNN baseline: unfused — aggregation then serial update.
        update_cycles = (
            2.0
            * (graph.num_vertices / machine.cores)
            * HARDWARE_FEATURES
            * HARDWARE_FEATURES
            / (machine.flops_per_cycle_per_core * machine.gemm_efficiency)
        )
        # No prefetch tuning in the baseline.  Training (forward +
        # backward: transposed gather + 2 GEMMs) is approximated as 1.9x
        # the forward cycles for every variant, so it cancels in a ratio.
        baseline = _core_sim(graph).cycles / 0.92 + update_cycles
        variants = {"fusion": graph, "fusion+DMA": graph}
        if training:
            # Physically relabel for the locality runs: after reordering,
            # the CSR arrays are re-laid-out so index reads stay
            # sequential (training amortizes this one-time cost, §4.4).
            local = apply_order(graph, locality_order(graph))
            variants.update({"fusion+locality": local, "fusion+DMA+locality": local})
        for variant, layout in variants.items():
            run = _dma_sim(layout) if "DMA" in variant else _core_sim(layout, fused=True)
            exp.add(f"{name} {variant}", baseline / run.cycles, published[name][variant])
    return exp


def fig16_tracking_table(ctx: BenchContext) -> Experiment:
    """Figure 16: DMA-aggregation time vs tracking-table entries."""
    exp = Experiment(
        "fig16", "DMA-aggregation time on wikipedia vs tracking-table entries"
    )
    graph = ctx.graph("wikipedia", hardware=True)
    times = {
        entries: _dma_sim(graph, fused=False, tracking_entries=entries).cycles
        for entries in (8, 16, 32, 64)
    }
    for entries, cycles in times.items():
        exp.add(
            f"{entries} entries (norm.)",
            cycles / times[8],
            paper.FIG16_TRACKING_TABLE[entries],
            unit="frac",
        )
    return exp


def tab5_cache_reduction(ctx: BenchContext) -> Experiment:
    """Table 5: private-cache access reduction from the DMA engine."""
    exp = Experiment("tab5", "Private cache access reduction with DMA")
    for name in ("products", "wikipedia"):
        graph = ctx.graph(name, hardware=True)
        pub = paper.TAB5_CACHE_REDUCTION[name]
        core, dma = _core_sim(graph), _dma_sim(graph, fused=False)
        core_fused, dma_fused = _core_sim(graph, fused=True), _dma_sim(graph)
        # The fused core run also writes/reads h_out: add those accesses.
        fused_l1 = core_fused.l1_accesses + graph.num_vertices * (
            HARDWARE_FEATURES * 4 // 64 + 1)
        for label, measured, published in (
            ("agg-only L1", 1.0 - dma.core_l1_accesses / core.l1_accesses,
             pub["agg_only"]["l1"]),
            ("agg-only L2", 1.0 - dma.core_l2_accesses / core.l2_accesses,
             pub["agg_only"]["l2"]),
            ("fused L1", 1.0 - dma_fused.core_l1_accesses / fused_l1,
             pub["fused"]["l1"]),
            ("fused L2",
             1.0 - dma_fused.core_l2_accesses / core_fused.l2_accesses,
             pub["fused"]["l2"]),
        ):
            exp.add(f"{name} {label} reduction", measured, published, unit="frac")
    return exp


def sec732_memory_system(ctx: BenchContext) -> Experiment:
    """Section 7.3.2: L2 miss rate and stall-time changes with DMA."""
    exp = Experiment("sec732", "Memory-system improvement from the DMA engine")
    for name in ("products", "wikipedia"):
        graph = ctx.graph(name, hardware=True)
        pub = paper.SEC732_MEMORY_SYSTEM[name]
        fused, dma = _core_sim(graph, fused=True), _dma_sim(graph)
        exp.add(f"{name} L2 miss before", fused.l2_miss_rate, pub["l2_miss_before"], "frac")
        exp.add(f"{name} L2 miss after", dma.l2_miss_rate, pub["l2_miss_after"], "frac")
        exp.add(f"{name} stall before", fused.memory_stall_fraction,
                pub["stall_before"], "frac")
        exp.add(f"{name} stall after", dma.core_wait_fraction, pub["stall_after"], "frac")
    return exp


class PlanEntry(NamedTuple):
    """One paper artifact: its report title and its run on a context."""

    title: str
    call: Callable[[BenchContext], Experiment]


#: Every paper artifact, by key, in report order: the choices of
#: ``repro experiment`` and the sections of EXPERIMENTS.md.
PLAN: Dict[str, PlanEntry] = {
    "fig2": PlanEntry("GPU sampled-training epoch breakdown", fig2_gpu_sampling),
    "fig3": PlanEntry("Baseline pipeline-slot breakdown", fig3_topdown),
    "tab3": PlanEntry("Dataset twins vs Table 3", tab3_datasets),
    "fig11a": PlanEntry(
        "Software speedups, GCN inference", fig11_software_speedups),
    "fig11a-sage": PlanEntry(
        "Software speedups, SAGE inference",
        lambda ctx: fig11_software_speedups(ctx, gnn="sage")),
    "fig11b": PlanEntry(
        "Software speedups, GCN training",
        lambda ctx: fig11_software_speedups(ctx, training=True)),
    "fig11b-sage": PlanEntry(
        "Software speedups, SAGE training",
        lambda ctx: fig11_software_speedups(ctx, training=True, gnn="sage")),
    "fig13": PlanEntry("Fusion time breakdown", fig13_fusion_breakdown),
    "fig14a": PlanEntry("Compression sweep, inference", fig14_compression_sweep),
    "fig14b": PlanEntry(
        "Compression sweep, training",
        lambda ctx: fig14_compression_sweep(ctx, training=True)),
    "fig15": PlanEntry("Locality vs randomized order", fig15_locality),
    "tab4": PlanEntry("Memory characterization", tab4_characterization),
    "fig12a": PlanEntry("Simulated DMA speedups, inference", fig12_dma_speedups),
    "fig12b": PlanEntry(
        "Simulated DMA speedups, training",
        lambda ctx: fig12_dma_speedups(ctx, training=True)),
    "fig16": PlanEntry("Tracking-table size sweep", fig16_tracking_table),
    "tab5": PlanEntry("Private-cache access reduction", tab5_cache_reduction),
    "sec732": PlanEntry("Memory-system improvement", sec732_memory_system),
}
