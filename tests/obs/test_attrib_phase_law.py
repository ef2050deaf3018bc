"""Differential test of the phase law that prices every variant.

The cost model prices one kernel pass with
:func:`repro.perf.cost_model.kernel_cost`, and span attribution prices a
traced kernel span with it.  The span pricing it replaced re-derived
that law in a module of its own; its two functions are kept here
verbatim as the oracle.  For every priced variant
(:data:`~repro.perf.cost_model.VARIANTS`), both ``keep_aggregation``
settings, two sparsities, two hit rates and two machines,
``kernel_cost``'s DRAM bytes and memory / compute seconds must equal the
oracle's to a relative 1e-12 (the compute side sums the same terms in
another order) — and so must ``attribute_run``'s for every traced span
name.
"""

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, Optional, Tuple

import pytest

from repro.obs.attrib import SPAN_VARIANTS, attribute_run
from repro.perf.cost_model import (
    AGGREGATION_COMPUTE_EFFICIENCY, VARIANTS, VariantSpec, kernel_cost,
)
from repro.perf.machine import MachineConfig, cascade_lake_12, cascade_lake_28
from repro.perf.traffic import (
    LayerShape, PhaseTraffic, aggregation_traffic, decompress_elements,
    update_traffic,
)

SHAPE = LayerShape(num_vertices=24_500, num_edges=431_000, f_in=64, f_out=32)


@dataclass(frozen=True)
class SpanWorkload:
    """The oracle's input: the analytic shape of one kernel span."""

    variant: str
    shape: LayerShape
    f_out: Optional[int]
    write_a: bool
    fused: bool
    compressed: bool

    @property
    def spec(self) -> VariantSpec:
        return VARIANTS[self.variant]


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


def _record(name, keep_aggregation):
    attrs = {
        "vertices": SHAPE.num_vertices,
        "edges": SHAPE.num_edges,
        "features": SHAPE.f_in,
        "features_out": SHAPE.f_out,
        "keep_aggregation": keep_aggregation,
    }
    return {"name": name, "span_id": 1, "attrs": attrs, "counters": {}}


def _oracle_workload(variant, keep_aggregation):
    spec = VARIANTS[variant]
    shape = SHAPE if spec.fused else LayerShape(
        SHAPE.num_vertices, SHAPE.num_edges, SHAPE.f_in, SHAPE.f_in
    )
    return SpanWorkload(
        variant=spec.name,
        shape=shape,
        f_out=SHAPE.f_out if spec.fused else None,
        write_a=keep_aggregation or not spec.fused,
        fused=spec.fused,
        compressed=spec.compressed,
    )


def _assert_prices_like_the_oracle(
    priced_phases, dram_bytes, aggregation_bytes, memory_s, compute_s,
    workload, hit_rate, sparsity, machine,
):
    phases = predict_phase_traffic(workload, hit_rate, sparsity)
    oracle_memory_s, oracle_compute_s = predict_phase_times(
        workload, phases, machine
    )
    assert set(priced_phases) == set(phases)
    for phase, traffic in phases.items():
        assert priced_phases[phase] == pytest.approx(
            {"dram_read": traffic.dram_read, "dram_write": traffic.dram_write,
             "flops": traffic.flops}, rel=1e-12)
    assert dram_bytes == pytest.approx(
        sum(t.dram_total for t in phases.values()), rel=1e-12)
    assert aggregation_bytes == pytest.approx(
        phases["aggregation"].dram_total, rel=1e-12)
    assert memory_s == pytest.approx(oracle_memory_s, rel=1e-12)
    assert compute_s == pytest.approx(oracle_compute_s, rel=1e-12)
    assert oracle_memory_s > 0 and oracle_compute_s > 0


@pytest.mark.parametrize("machine", [cascade_lake_28(), cascade_lake_12()],
                         ids=["28-core", "12-core"])
@pytest.mark.parametrize("hit_rate", [0.0, 0.62])
@pytest.mark.parametrize("sparsity", [0.0, 0.5])
@pytest.mark.parametrize("keep_aggregation", [False, True],
                         ids=["inference", "training"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_kernel_cost_prices_like_the_phase_law_it_replaced(
    variant, keep_aggregation, sparsity, hit_rate, machine
):
    workload = _oracle_workload(variant, keep_aggregation)
    cost = kernel_cost(
        machine, VARIANTS[variant], workload.shape, hit_rate, sparsity,
        workload.write_a,
    )
    _assert_prices_like_the_oracle(
        {phase: {"dram_read": t.dram_read, "dram_write": t.dram_write,
                 "flops": t.flops} for phase, t in cost.phases.items()},
        sum(t.dram_total for t in cost.phases.values()),
        cost.phases["aggregation"].dram_total,
        cost.memory_s, cost.compute_s,
        workload, hit_rate, sparsity, machine,
    )


@pytest.mark.parametrize("machine", [cascade_lake_28(), cascade_lake_12()],
                         ids=["28-core", "12-core"])
@pytest.mark.parametrize("hit_rate", [0.0, 0.62])
@pytest.mark.parametrize("sparsity", [0.0, 0.5])
@pytest.mark.parametrize("keep_aggregation", [False, True],
                         ids=["inference", "training"])
@pytest.mark.parametrize("name", sorted(SPAN_VARIANTS))
def test_attribution_prices_like_the_phase_law_it_replaced(
    name, keep_aggregation, sparsity, hit_rate, machine
):
    (span,) = attribute_run(
        [_record(name, keep_aggregation)],
        # A cost model that prices every order at the one hit rate.
        cost_model=SimpleNamespace(machine=machine,
                                   hit_rate=lambda order: hit_rate),
        sparsity=sparsity,
    ).spans
    _assert_prices_like_the_oracle(
        span.phases, span.predicted_dram_bytes, span.aggregation_dram_bytes,
        span.predicted_memory_s, span.predicted_compute_s,
        _oracle_workload(SPAN_VARIANTS[name], keep_aggregation),
        hit_rate, sparsity, machine,
    )
