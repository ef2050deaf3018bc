"""Integration: bottleneck attribution reconciles model vs cache sim.

One seeded synthetic run exercises the full attribution loop the ISSUE
describes: traced kernel invocations (basic / fused / compressed), the
trace-driven cache simulator publishing ``sim.<label>.*`` traffic, and
``attribute_run`` joining the two planes.  In the compulsory-dominated
regime (the whole working set fits in L2/L3) the cost model and the
simulator count the same DRAM bytes up to line-granularity rounding, so
their per-pass aggregation traffic must agree within
``DEFAULT_TRAFFIC_TOLERANCE`` — and the fused kernel's attributed
aggregation traffic must sit strictly below basic's (the Section 4.2
claim that fusion removes the ``a`` round trip).
"""

import numpy as np
import pytest

from repro import obs
from repro.graphs import power_law_graph, synthetic_features
from repro.kernels import (
    BasicKernel,
    CompressedKernel,
    FusedKernel,
    UpdateParams,
)
from repro.obs.attrib import DEFAULT_TRAFFIC_TOLERANCE, attribute_run
from repro.perf import CostModel, cascade_lake_12
from repro.perf.traffic import compressed_effective_feature_len
from repro.sim import CoreAggregationSim
from repro.tensors.compression import traffic_ratio

SEED = 7
FEATURES = 16
HIDDEN = 8
SPARSITY = 0.5


@pytest.fixture(scope="module")
def traced_run():
    """One traced run of the three kernels plus their simulator twins."""
    graph = power_law_graph(600, 8.0, seed=SEED, name="attrib-twin")
    h = synthetic_features(graph, FEATURES, seed=SEED, sparsity=SPARSITY)
    rng = np.random.default_rng(SEED)
    params = UpdateParams(
        weight=(rng.standard_normal((FEATURES, HIDDEN)) * 0.1).astype(np.float32),
        bias=np.zeros(HIDDEN, dtype=np.float32),
    )
    machine = cascade_lake_12()
    sim = CoreAggregationSim(machine)

    tracer, metrics = obs.enable()
    try:
        BasicKernel().aggregate(graph, h)
        FusedKernel().run_layer(graph, h, params, keep_aggregation=False)
        CompressedKernel().aggregate(graph, h)

        # Simulator twins of the same passes.  The whole working set fits
        # in the private caches, so DRAM traffic is compulsory-dominated
        # on both planes.
        sim.run(graph, FEATURES, label="basic")
        sim.run(
            graph,
            FEATURES,
            fused_update_features=HIDDEN,
            reuse_output_buffer=True,
            label="fusion",
        )
        eff = compressed_effective_feature_len(FEATURES, traffic_ratio(SPARSITY))
        sim.run(graph, eff, label="compression")

        records = [
            span.to_record()
            for span in sorted(tracer.spans(), key=lambda s: s.span_id)
        ]
        snapshot = metrics.snapshot()
    finally:
        obs.disable()

    # Huge capacity -> the model's gather hit rate is the compulsory
    # bound (every repeat access hits), matching the fits-in-cache sim.
    cost_model = CostModel(graph, machine, capacity_vectors=10**9)
    report = attribute_run(
        records,
        cost_model=cost_model,
        sparsity=SPARSITY,
        metrics_snapshot=snapshot,
    )
    return report, records, snapshot


class TestReconciliation:
    def test_all_three_variants_reconcile(self, traced_run):
        report, _, _ = traced_run
        by_variant = {rec.variant: rec for rec in report.reconciliations}
        assert set(by_variant) == {"basic", "fusion", "compression"}
        for variant, rec in by_variant.items():
            assert rec.within_tolerance, (
                f"{variant}: model {rec.model_bytes:.0f} B vs sim "
                f"{rec.sim_bytes:.0f} B ({rec.relative_error:.1%} apart)"
            )
            assert rec.relative_error <= DEFAULT_TRAFFIC_TOLERANCE
        assert report.divergent() == []

    def test_fused_aggregation_traffic_below_basic(self, traced_run):
        """Section 4.2: fusion removes the ``a`` write from the agg phase."""
        report, _, _ = traced_run
        basic = report.span_for("kernel.basic")[0]
        fused = report.span_for("kernel.fusion")[0]
        assert fused.aggregation_dram_bytes < basic.aggregation_dram_bytes

    def test_fused_sim_traffic_below_basic_sim(self, traced_run):
        """The simulator agrees: the reusable output buffer cuts traffic."""
        _, _, snapshot = traced_run
        basic = snapshot["sim.basic.dram.bytes_served"]["value"]
        fused = snapshot["sim.fusion.dram.bytes_served"]["value"]
        assert fused < basic

    def test_basic_span_is_memory_bound(self, traced_run):
        report, _, _ = traced_run
        basic = report.span_for("kernel.basic")[0]
        assert basic.verdict == "memory-bound"
        assert basic.memory_bound_fraction > 0.5

    def test_compression_moves_fewer_model_bytes_than_basic(self, traced_run):
        report, _, _ = traced_run
        basic = report.span_for("kernel.basic")[0]
        compressed = report.span_for("kernel.compression")[0]
        assert compressed.aggregation_dram_bytes < basic.aggregation_dram_bytes
        assert compressed.measured["dram_bytes_saved"] > 0

    def test_injected_divergence_is_flagged(self, traced_run):
        _, records, _ = traced_run
        report = attribute_run(
            records,
            hit_rate=0.9,
            sparsity=SPARSITY,
            sim_dram_bytes={"basic": 1e12},
        )
        assert "basic" in [r.variant for r in report.divergent()]

    def test_sim_spans_recorded_but_not_attributed(self, traced_run):
        report, records, _ = traced_run
        sim_spans = [r for r in records if r["name"].startswith("sim.")]
        assert len(sim_spans) == 3
        assert all(s["counters"]["dram_bytes"] > 0 for s in sim_spans)
        attributed = {s.name for s in report.spans}
        assert not any(name.startswith("sim.") for name in attributed)
