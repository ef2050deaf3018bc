"""Per-artifact experiment definitions (one function per table/figure).

Each function reproduces one paper artifact end-to-end on the dataset
twins and returns an :class:`repro.bench.harness.Experiment` with the
published values alongside.  The ``benchmarks/`` tree is a thin layer
over these functions; they are also exercised directly by integration
tests.

Scale notes: the software-model experiments (Fig. 11/13/14/15, Tables
3-4) run at twin scale 0.5 by default; the trace-driven hardware
experiments (Fig. 12/16, Table 5, Section 7.3.2) run at a smaller scale
because every cache line access is simulated in Python — mirroring the
paper, whose own "hardware evaluation is limited to products and
wikipedia due to very long simulation times" (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.datasets import input_feature_size, load_dataset
from ..graphs.reorder import locality_order
from ..perf.cost_model import CostModel
from ..perf.topdown import characterize
from ..dma.offload import DmaOffloadRunner
from ..gpu.gpu_model import epoch_breakdown
from ..sim.core_sim import CoreAggregationSim
from ..graphs.stats import graph_stats
from . import paper_values as paper
from .harness import Experiment

#: Default twin scale for the analytical (software) experiments.
SOFTWARE_SCALE = 0.5

#: Default twin scale for trace-driven (hardware) experiments.
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
    _graphs: Dict[str, CSRGraph] = field(default_factory=dict)
    _models: Dict[str, CostModel] = field(default_factory=dict)

    def graph(self, name: str) -> CSRGraph:
        if name not in self._graphs:
            self._graphs[name] = load_dataset(name, scale=self.scale, seed=self.seed)
        return self._graphs[name]

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


def fig2_gpu_sampling(ctx: Optional[BenchContext] = None) -> Experiment:
    """Figure 2: sampled-GNN GPU training epoch breakdown.

    Absolute seconds are not comparable across a 1000x graph-scale gap,
    so the rows report the two *shape* facts of the figure: sampling's
    share of epoch time (>80% in the paper) and the epoch time relative
    to batch-1024 (smaller batches are slower).
    """
    ctx = ctx or BenchContext()
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


def fig3_topdown(ctx: Optional[BenchContext] = None) -> Experiment:
    """Figure 3: pipeline-slot breakdown of the DGL/DistGNN baseline."""
    ctx = ctx or BenchContext()
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


def tab3_datasets(ctx: Optional[BenchContext] = None) -> Experiment:
    """Table 3: dataset statistics of the twins vs the originals."""
    ctx = ctx or BenchContext()
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
    ctx: Optional[BenchContext] = None,
    training: bool = False,
    gnn: str = "gcn",
) -> Experiment:
    """Figure 11: software speedups over DistGNN (inference or training)."""
    ctx = ctx or BenchContext()
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


def fig13_fusion_breakdown(ctx: Optional[BenchContext] = None) -> Experiment:
    """Figure 13: basic agg/update split and fused time, GCN hidden layers."""
    ctx = ctx or BenchContext()
    exp = Experiment(
        "fig13", "Hidden-layer time breakdown, normalized to basic (GCN)"
    )
    from ..perf.cost_model import VARIANTS
    from ..perf.traffic import LayerShape

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
    ctx: Optional[BenchContext] = None, training: bool = False
) -> Experiment:
    """Figure 14: compression speedup over basic across sparsities."""
    ctx = ctx or BenchContext()
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


def fig15_locality(ctx: Optional[BenchContext] = None) -> Experiment:
    """Figure 15: combined and c-locality over the randomized average."""
    ctx = ctx or BenchContext()
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


def tab4_characterization(ctx: Optional[BenchContext] = None) -> Experiment:
    """Table 4: memory characterization of GCN training."""
    ctx = ctx or BenchContext()
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
def _hardware_setup(name: str, scale: float, seed: int = 0):
    graph = load_dataset(name, scale=scale, seed=seed)
    return graph


def fig12_dma_speedups(
    training: bool = False,
    scale: float = HARDWARE_SCALE,
) -> Experiment:
    """Figure 12: simulated speedups of fusion and fusion+DMA over DistGNN."""
    which = "training" if training else "inference"
    exp = Experiment(
        "fig12b" if training else "fig12a",
        f"Simulated {which} speedup over DistGNN (products & wikipedia twins)",
    )
    published = (paper.FIG12B_DMA_TRAINING if training else paper.FIG12A_DMA_INFERENCE)["gcn"]
    f_in = HARDWARE_FEATURES
    f_out = HARDWARE_FEATURES
    for name in ("products", "wikipedia"):
        graph = _hardware_setup(name, scale)
        sim = CoreAggregationSim(cache_scale=HARDWARE_CACHE_SCALE)
        # DistGNN baseline: unfused — aggregation then serial update.
        agg = sim.run(graph, f_in)
        update_cycles = (
            2.0
            * (graph.num_vertices / sim.machine.cores)
            * f_in
            * f_out
            / (sim.machine.flops_per_cycle_per_core * sim.machine.gemm_efficiency)
        )
        baseline_cycles = agg.cycles / 0.92 + update_cycles  # no prefetch tuning
        fused = CoreAggregationSim(cache_scale=HARDWARE_CACHE_SCALE).run(
            graph, f_in, fused_update_features=f_out
        )
        runner = DmaOffloadRunner(cache_scale=HARDWARE_CACHE_SCALE)
        import numpy as _np

        h = _np.zeros((graph.num_vertices, f_in), dtype=_np.float32)
        from ..kernels.base import UpdateParams

        params = UpdateParams(
            weight=_np.zeros((f_in, f_out), dtype=_np.float32),
            bias=_np.zeros(f_out, dtype=_np.float32),
        )
        _, _, dma = runner.run_layer(graph, h, params=params)

        def epoch(cycles_forward: float) -> float:
            # Training: forward + backward (transposed gather + 2 GEMMs),
            # approximated as 1.9x the forward cycles for every variant.
            return cycles_forward * (1.9 if training else 1.0)

        pub = published[name]
        exp.add(f"{name} fusion", epoch(baseline_cycles) / epoch(fused.cycles), pub["fusion"])
        exp.add(
            f"{name} fusion+DMA",
            epoch(baseline_cycles) / epoch(dma.cycles),
            pub["fusion+DMA"],
        )
        if training:
            # Physically relabel for the locality runs: after reordering,
            # the CSR arrays are re-laid-out so index reads stay
            # sequential (training amortizes this one-time cost, §4.4).
            from ..graphs.reorder import apply_order

            graph_loc = apply_order(graph, locality_order(graph))
            fused_loc = CoreAggregationSim(cache_scale=HARDWARE_CACHE_SCALE).run(
                graph_loc, f_in, fused_update_features=f_out
            )
            runner_loc = DmaOffloadRunner(cache_scale=HARDWARE_CACHE_SCALE)
            h_loc = _np.zeros((graph_loc.num_vertices, f_in), dtype=_np.float32)
            _, _, dma_loc = runner_loc.run_layer(graph_loc, h_loc, params=params)
            exp.add(
                f"{name} fusion+locality",
                epoch(baseline_cycles) / epoch(fused_loc.cycles),
                pub["fusion+locality"],
            )
            exp.add(
                f"{name} fusion+DMA+locality",
                epoch(baseline_cycles) / epoch(dma_loc.cycles),
                pub["fusion+DMA+locality"],
            )
    return exp


def fig16_tracking_table(scale: float = HARDWARE_SCALE) -> Experiment:
    """Figure 16: DMA-aggregation time vs tracking-table entries."""
    exp = Experiment(
        "fig16", "DMA-aggregation time on wikipedia vs tracking-table entries"
    )
    graph = _hardware_setup("wikipedia", scale)
    h = np.zeros((graph.num_vertices, HARDWARE_FEATURES), dtype=np.float32)
    times = {}
    for entries in (8, 16, 32, 64):
        runner = DmaOffloadRunner(
            cache_scale=HARDWARE_CACHE_SCALE, tracking_entries=entries
        )
        _, _, report = runner.run_layer(graph, h, params=None)
        times[entries] = report.cycles
    for entries in (8, 16, 32, 64):
        exp.add(
            f"{entries} entries (norm.)",
            times[entries] / times[8],
            paper.FIG16_TRACKING_TABLE[entries],
            unit="frac",
        )
    return exp


def tab5_cache_reduction(scale: float = HARDWARE_SCALE) -> Experiment:
    """Table 5: private-cache access reduction from the DMA engine."""
    exp = Experiment("tab5", "Private cache access reduction with DMA")
    from ..kernels.base import UpdateParams

    f_in = HARDWARE_FEATURES
    f_out = HARDWARE_FEATURES
    for name in ("products", "wikipedia"):
        graph = _hardware_setup(name, scale)
        h = np.zeros((graph.num_vertices, f_in), dtype=np.float32)
        params = UpdateParams(
            weight=np.zeros((f_in, f_out), dtype=np.float32),
            bias=np.zeros(f_out, dtype=np.float32),
        )
        pub = paper.TAB5_CACHE_REDUCTION[name]

        core_agg = CoreAggregationSim(cache_scale=HARDWARE_CACHE_SCALE).run(graph, f_in)
        dma_agg_runner = DmaOffloadRunner(cache_scale=HARDWARE_CACHE_SCALE)
        _, _, dma_agg = dma_agg_runner.run_layer(graph, h, params=None)
        exp.add(
            f"{name} agg-only L1 reduction",
            1.0 - dma_agg.core_l1_accesses / core_agg.l1_accesses,
            pub["agg_only"]["l1"],
            unit="frac",
        )
        exp.add(
            f"{name} agg-only L2 reduction",
            1.0 - dma_agg.core_l2_accesses / core_agg.l2_accesses,
            pub["agg_only"]["l2"],
            unit="frac",
        )

        core_fused = CoreAggregationSim(cache_scale=HARDWARE_CACHE_SCALE).run(
            graph, f_in, fused_update_features=f_out
        )
        # Fused core run also writes/reads h_out: add those accesses.
        fused_l1 = core_fused.l1_accesses + graph.num_vertices * (f_out * 4 // 64 + 1)
        fused_l2 = core_fused.l2_accesses
        dma_fused_runner = DmaOffloadRunner(cache_scale=HARDWARE_CACHE_SCALE)
        _, _, dma_fused = dma_fused_runner.run_layer(graph, h, params=params)
        exp.add(
            f"{name} fused L1 reduction",
            1.0 - dma_fused.core_l1_accesses / fused_l1,
            pub["fused"]["l1"],
            unit="frac",
        )
        exp.add(
            f"{name} fused L2 reduction",
            1.0 - dma_fused.core_l2_accesses / fused_l2,
            pub["fused"]["l2"],
            unit="frac",
        )
    return exp


def sec732_memory_system(scale: float = HARDWARE_SCALE) -> Experiment:
    """Section 7.3.2: L2 miss rate and stall-time changes with DMA."""
    exp = Experiment("sec732", "Memory-system improvement from the DMA engine")
    from ..kernels.base import UpdateParams

    f_in = HARDWARE_FEATURES
    for name in ("products", "wikipedia"):
        graph = _hardware_setup(name, scale)
        h = np.zeros((graph.num_vertices, f_in), dtype=np.float32)
        params = UpdateParams(
            weight=np.zeros((f_in, f_in), dtype=np.float32),
            bias=np.zeros(f_in, dtype=np.float32),
        )
        pub = paper.SEC732_MEMORY_SYSTEM[name]
        fused = CoreAggregationSim(cache_scale=HARDWARE_CACHE_SCALE).run(
            graph, f_in, fused_update_features=f_in
        )
        runner = DmaOffloadRunner(cache_scale=HARDWARE_CACHE_SCALE)
        _, _, dma = runner.run_layer(graph, h, params=params)
        exp.add(f"{name} L2 miss before", fused.l2_miss_rate, pub["l2_miss_before"], "frac")
        exp.add(f"{name} L2 miss after", dma.l2_miss_rate, pub["l2_miss_after"], "frac")
        exp.add(
            f"{name} stall before",
            fused.memory_stall_fraction,
            pub["stall_before"],
            "frac",
        )
        exp.add(
            f"{name} stall after", dma.core_wait_fraction, pub["stall_after"], "frac"
        )
    return exp
