"""Integration: the cost model's DRAM traffic reconciles with the cache sim.

The paper's variants are priced by the cost model
(:func:`repro.perf.cost_model.kernel_cost`) and replayed by the
trace-driven cache simulator (:class:`repro.sim.CoreAggregationSim`).
On one seeded synthetic twin in the compulsory-dominated regime (the
whole working set fits in L2/L3), the two planes count the same DRAM
bytes up to line-granularity rounding, so their per-pass aggregation
traffic must agree within ``DEFAULT_TRAFFIC_TOLERANCE`` for basic,
fusion and compression — and fusion's aggregation traffic must sit
strictly below basic's on both planes (the Section 4.2 claim that fusion
removes the ``a`` round trip), compression's below basic's (Section
4.3).  A traced run of the value-plane kernel is attributed alongside;
the simulator records no span of its own.
"""

import pytest

from repro.graphs import power_law_graph, synthetic_features
from repro.kernels import BasicKernel
from repro.obs.attrib import attribute_run
from repro.perf import VARIANTS, CostModel, cascade_lake_12
from repro.perf.cost_model import kernel_cost
from repro.perf.traffic import LayerShape, compressed_effective_feature_len
from repro.sim import CoreAggregationSim
from repro.tensors.compression import compress_matrix, traffic_ratio

SEED = 7
FEATURES = 16
HIDDEN = 8
SPARSITY = 0.5

#: Relative disagreement between cost-model and simulator DRAM traffic
#: tolerated before a reconciliation is flagged divergent.  The two
#: planes count differently by construction — the model moves exact byte
#: counts, the simulator moves whole 64B cache lines through finite
#: set-associative caches — so line-granularity rounding and replacement
#: noise must fit inside the tolerance, while a structural error (a
#: missing stream, a wrong hit rate) must not.
DEFAULT_TRAFFIC_TOLERANCE = 0.35


def relative_error(model_bytes, sim_bytes):
    return abs(model_bytes - sim_bytes) / sim_bytes


@pytest.fixture(scope="module")
def planes(telemetry):
    """Both planes' per-pass aggregation traffic, plus one traced run of
    the value-plane kernel next to the simulator's passes."""
    graph = power_law_graph(600, 8.0, seed=SEED, name="attrib-twin")
    h = synthetic_features(graph, FEATURES, seed=SEED, sparsity=SPARSITY)
    machine = cascade_lake_12()
    sim = CoreAggregationSim(machine)

    with telemetry() as (tracer, _):
        BasicKernel().aggregate(graph, h)
        # The simulator's passes.  The whole working set fits in the
        # private caches, so DRAM traffic is compulsory-dominated.
        eff = compressed_effective_feature_len(FEATURES, traffic_ratio(SPARSITY))
        sim_bytes = {
            "basic": sim.run(graph, FEATURES).dram_bytes,
            "fusion": sim.run(
                graph,
                FEATURES,
                fused_update_features=HIDDEN,
                reuse_output_buffer=True,
            ).dram_bytes,
            "compression": sim.run(graph, eff).dram_bytes,
        }
        records = [
            span.to_record()
            for span in sorted(tracer.spans(), key=lambda s: s.span_id)
        ]

    # Huge capacity -> the model's gather hit rate is the compulsory
    # bound (every repeat access hits), matching the fits-in-cache sim.
    cost_model = CostModel(graph, machine, capacity_vectors=10**9)
    model_bytes = {}
    for variant, f_out in (("basic", FEATURES), ("fusion", HIDDEN),
                           ("compression", FEATURES)):
        spec = VARIANTS[variant]
        shape = LayerShape(graph.num_vertices, graph.num_edges, FEATURES, f_out)
        # Fused inference keeps ``a`` in a reusable buffer (Figure 5c).
        cost = kernel_cost(
            machine, spec, shape, cost_model.hit_rate(spec.order), SPARSITY,
            write_a=not spec.fused,
        )
        model_bytes[variant] = cost.phases["aggregation"].dram_total
    report = attribute_run(records, cost_model=cost_model, sparsity=SPARSITY)
    return model_bytes, sim_bytes, report, records, h


class TestReconciliation:
    def test_all_three_variants_reconcile(self, planes):
        model_bytes, sim_bytes, _, _, _ = planes
        assert set(model_bytes) == set(sim_bytes) == {"basic", "fusion", "compression"}
        for variant, sim in sim_bytes.items():
            error = relative_error(model_bytes[variant], sim)
            assert error <= DEFAULT_TRAFFIC_TOLERANCE, (
                f"{variant}: model {model_bytes[variant]:.0f} B vs sim "
                f"{sim:.0f} B ({error:.1%} apart)"
            )

    def test_fused_aggregation_traffic_below_basic(self, planes):
        """Section 4.2: fusion removes the ``a`` write from the agg phase."""
        model_bytes, _, _, _, _ = planes
        assert model_bytes["fusion"] < model_bytes["basic"]

    def test_fused_sim_traffic_below_basic_sim(self, planes):
        """The simulator agrees: the reusable output buffer cuts traffic."""
        _, sim_bytes, _, _, _ = planes
        assert sim_bytes["fusion"] < sim_bytes["basic"]

    def test_basic_span_is_memory_bound(self, planes):
        _, _, report, _, _ = planes
        basic = next(s for s in report.spans if s.name == "kernel.basic")
        assert basic.verdict == "memory-bound"
        assert basic.memory_bound_fraction > 0.5

    def test_compression_moves_fewer_model_bytes_than_basic(self, planes):
        model_bytes, _, _, _, h = planes
        assert model_bytes["compression"] < model_bytes["basic"]
        # The S3 format of the same features stores fewer bytes.
        assert compress_matrix(h).total_stored_bytes() < h.nbytes

    def test_injected_divergence_is_flagged(self, planes):
        model_bytes, _, _, _, _ = planes
        assert relative_error(model_bytes["basic"], 1e12) > DEFAULT_TRAFFIC_TOLERANCE

    def test_only_the_kernel_span_is_attributed(self, planes):
        _, sim_bytes, report, records, _ = planes
        assert [r["name"] for r in records] == ["kernel.basic"]
        assert all(value > 0 for value in sim_bytes.values())
        assert {s.name for s in report.spans} == {"kernel.basic"}
