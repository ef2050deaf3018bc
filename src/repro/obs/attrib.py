"""Bottleneck attribution: join traced spans with the analytic cost story.

The paper's argument is a bottleneck story — aggregation is >60%
memory-bound (Figure 3), and every technique is justified by the DRAM
bytes it removes.  The tracer records *where the time went*; this module
explains *why*, span by span: each ``kernel.*`` span gets the analytic
DRAM traffic its pass should have moved and a memory-bound /
compute-bound verdict, both from the cost model's own phase law
(:func:`repro.perf.cost_model.kernel_cost`), and its measured counters
alongside; traffic is totalled per variant.

The value plane runs one kernel, so the spans priced here are the
``basic`` kernel's, forward and transposed.  The paper's other variants
are priced by :func:`~repro.perf.cost_model.kernel_cost` directly, and
their model-vs-cache-simulator reconciliation is a test driven by
:mod:`repro.perf` and :mod:`repro.sim`, not a pass over a trace.

Everything operates on plain span records (``Span.to_record()`` dicts or
re-read JSONL), so attribution works on a live tracer and on a trace
file loaded weeks later alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..perf.cost_model import VARIANTS, VariantSpec, kernel_cost
from ..perf.traffic import LayerShape

#: Traced span name -> cost-model variant it executes.  The backward
#: aggregation (Âᵀ grad_a) has the basic kernel's shape: the same
#: gather-reduce structure over the transposed adjacency, so the same
#: traffic/compute model prices it and backward spans get attribution
#: rows of their own.
SPAN_VARIANTS: Dict[str, str] = {
    "kernel.basic": "basic",
    "kernel.backward.basic": "basic",
}

#: Measured span counters carried into the attribution rows.
_MEASURED_KEYS = ("gathers", "flops", "tasks", "prefetches")


@dataclass(frozen=True)
class SpanWorkload:
    """The analytic shape of the work one kernel span performed."""

    variant: str
    shape: LayerShape

    @property
    def spec(self) -> VariantSpec:
        return VARIANTS[self.variant]


def workload_from_span(record: Dict[str, Any]) -> Optional[SpanWorkload]:
    """Recover the workload shape of one traced kernel-span record.

    Every kernel span records ``vertices``, ``edges`` and ``features``.
    Returns None for spans that are not kernel invocations (epochs,
    layers, sim spans) and for a kernel span missing one of those
    attributes.
    """
    variant = SPAN_VARIANTS.get(record.get("name", ""))
    if variant is None:
        return None
    attrs = record.get("attrs") or {}
    if any(attrs.get(key) is None for key in ("vertices", "edges", "features")):
        return None
    f_in = int(attrs["features"])
    return SpanWorkload(
        variant=variant,
        shape=LayerShape(
            num_vertices=int(attrs["vertices"]),
            num_edges=int(attrs["edges"]),
            f_in=f_in,
            f_out=f_in,
        ),
    )


@dataclass
class SpanAttribution:
    """One kernel span joined with its analytic prediction."""

    span_id: int
    name: str
    variant: str
    duration_s: float
    phases: Dict[str, Dict[str, float]]  # phase -> dram_read/dram_write/flops
    predicted_dram_bytes: float
    aggregation_dram_bytes: float
    predicted_memory_s: float
    predicted_compute_s: float
    verdict: str  # "memory-bound" | "compute-bound"
    memory_bound_fraction: float
    measured: Dict[str, float] = field(default_factory=dict)


@dataclass
class AttributionReport:
    """The full attribution document for one traced run."""

    spans: List[SpanAttribution]
    technique_totals: Dict[str, Dict[str, float]]

    def render(self) -> str:
        """Human-readable attribution summary (what ``repro profile`` prints)."""
        lines: List[str] = []
        header = (
            f"{'span':<20} {'verdict':<14} {'mem%':>6} {'wall ms':>9} "
            f"{'model MB':>9} {'agg MB':>8}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for span in self.spans:
            lines.append(
                f"{span.name:<20} {span.verdict:<14} "
                f"{span.memory_bound_fraction:>6.1%} "
                f"{span.duration_s * 1e3:>9.2f} "
                f"{span.predicted_dram_bytes / 1e6:>9.3f} "
                f"{span.aggregation_dram_bytes / 1e6:>8.3f}"
            )
        if self.technique_totals:
            lines.append("")
            lines.append("bytes moved per technique (model, aggregation phase):")
            for variant, totals in self.technique_totals.items():
                lines.append(
                    f"  {variant:<12} {totals['aggregation_dram_bytes'] / 1e6:9.3f} MB"
                    f" over {int(totals['spans'])} span(s)"
                )
        return "\n".join(lines)


def attribute_run(
    records: List[Dict[str, Any]],
    *,
    cost_model: Any,
    sparsity: float = 0.0,
) -> AttributionReport:
    """Attribute every kernel span of a traced run.

    Args:
        records: flat span records (``tracer.spans()`` mapped through
            ``to_record`` or re-read from JSONL).
        cost_model: the :class:`repro.perf.CostModel` of the graph the
            run executed: its ``machine`` prices the phases and its
            ``hit_rate(order)`` gives each variant's gather hit rate
            from the reuse profile of the variant's processing order.
        sparsity: feature zero-fraction the phase law is priced at.
    """
    machine = cost_model.machine

    spans: List[SpanAttribution] = []
    totals: Dict[str, Dict[str, float]] = {}
    for record in records:
        workload = workload_from_span(record)
        if workload is None:
            continue
        rate = cost_model.hit_rate(workload.spec.order)
        cost = kernel_cost(machine, workload.spec, workload.shape, rate, sparsity)
        phases = cost.phases
        memory_s, compute_s = cost.memory_s, cost.compute_s
        bound_time = memory_s + compute_s
        fraction = memory_s / bound_time if bound_time > 0 else 0.0
        counters = record.get("counters") or {}
        agg_bytes = phases["aggregation"].dram_total
        total_bytes = sum(t.dram_total for t in phases.values())
        attribution = SpanAttribution(
            span_id=int(record.get("span_id", -1)),
            name=record["name"],
            variant=workload.variant,
            duration_s=float(record.get("duration_s", 0.0)),
            phases={
                phase: {
                    "dram_read": t.dram_read,
                    "dram_write": t.dram_write,
                    "flops": t.flops,
                }
                for phase, t in phases.items()
            },
            predicted_dram_bytes=total_bytes,
            aggregation_dram_bytes=agg_bytes,
            predicted_memory_s=memory_s,
            predicted_compute_s=compute_s,
            verdict="memory-bound" if memory_s >= compute_s else "compute-bound",
            memory_bound_fraction=fraction,
            measured={
                key: float(counters[key]) for key in _MEASURED_KEYS if key in counters
            },
        )
        spans.append(attribution)
        bucket = totals.setdefault(
            workload.variant,
            {
                "spans": 0.0,
                "duration_s": 0.0,
                "aggregation_dram_bytes": 0.0,
                "predicted_dram_bytes": 0.0,
            },
        )
        bucket["spans"] += 1.0
        bucket["duration_s"] += attribution.duration_s
        bucket["aggregation_dram_bytes"] += agg_bytes
        bucket["predicted_dram_bytes"] += total_bytes

    return AttributionReport(spans=spans, technique_totals=totals)
