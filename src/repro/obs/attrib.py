"""Bottleneck attribution: join traced spans with the analytic cost story.

The paper's argument is a bottleneck story — aggregation is >60%
memory-bound (Figure 3), and every technique is justified by the DRAM
bytes it removes.  The tracer records *where the time went*; this module
explains *why*, span by span:

* each ``kernel.*`` span gets the analytic DRAM traffic its variant
  should have moved and a memory-bound / compute-bound verdict, both
  from the cost model's own phase law
  (:func:`repro.perf.cost_model.kernel_cost`), and its measured counters
  alongside;
* traffic is accounted per technique (basic vs fusion vs compression vs
  combined), the Figure 5 / Section 4.2-4.3 bytes-moved ledger;
* when the trace-driven cache simulator also ran
  (:class:`repro.sim.CoreAggregationSim` with a ``label``), the
  cost-model traffic is *reconciled* against the simulator's measured
  ``sim.<label>.dram.bytes_served`` — agreement within a tolerance, or a
  flagged divergence, because two independent planes disagreeing is a
  bug in one of them, not data.

Everything operates on plain span records (``Span.to_record()`` dicts or
re-read JSONL), so attribution works on a live tracer and on a trace
file loaded weeks later alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..perf.cost_model import VARIANTS, VariantSpec, kernel_cost
from ..perf.machine import MachineConfig, cascade_lake_28
from ..perf.traffic import LayerShape

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

#: Relative disagreement between cost-model and simulator DRAM traffic
#: tolerated before a reconciliation is flagged divergent.  The two
#: planes count differently by construction — the model moves exact byte
#: counts, the simulator moves whole 64B cache lines through finite
#: set-associative caches — so line-granularity rounding and replacement
#: noise must fit inside the tolerance, while a structural error (a
#: missing stream, a wrong hit rate) must not.
DEFAULT_TRAFFIC_TOLERANCE = 0.35

#: Measured span counters carried into the attribution rows.
_MEASURED_KEYS = ("gathers", "flops", "dram_bytes_saved", "tasks", "prefetches")


@dataclass(frozen=True)
class SpanWorkload:
    """The analytic shape of the work one kernel span performed."""

    variant: str
    shape: LayerShape
    write_a: bool  # aggregation output goes to DRAM (Figure 5)

    @property
    def spec(self) -> VariantSpec:
        return VARIANTS[self.variant]


def workload_from_span(record: Dict[str, Any]) -> Optional[SpanWorkload]:
    """Recover the workload shape of one traced kernel-span record.

    Every kernel span records ``vertices``, ``edges`` and ``features``,
    and a fused one ``features_out`` and ``keep_aggregation``.  Returns
    None for spans that are not kernel invocations (epochs, layers, sim
    spans) and for a kernel span missing one of those attributes.
    """
    variant = SPAN_VARIANTS.get(record.get("name", ""))
    if variant is None:
        return None
    spec = VARIANTS[variant]
    attrs = record.get("attrs") or {}
    keys = ("vertices", "edges", "features") + (
        ("features_out",) if spec.fused else ()
    )
    if any(attrs.get(key) is None for key in keys):
        return None
    f_in = int(attrs["features"])
    return SpanWorkload(
        variant=variant,
        shape=LayerShape(
            num_vertices=int(attrs["vertices"]),
            num_edges=int(attrs["edges"]),
            f_in=f_in,
            f_out=int(attrs["features_out"]) if spec.fused else f_in,
        ),
        # Fused inference keeps ``a`` in a reusable cache buffer (Figure
        # 5c); training — and every unfused kernel — writes it to DRAM.
        write_a=not spec.fused or bool(attrs.get("keep_aggregation", True)),
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
class TrafficReconciliation:
    """Cost-model vs simulator DRAM traffic for one kernel family.

    Both sides are *per aggregation pass*: the model side averages over
    the variant's spans, the simulator side divides its published byte
    total by its published run count.
    """

    variant: str
    model_bytes: float
    sim_bytes: float
    relative_error: float
    tolerance: float
    within_tolerance: bool


@dataclass
class AttributionReport:
    """The full attribution document for one traced run."""

    spans: List[SpanAttribution]
    technique_totals: Dict[str, Dict[str, float]]
    reconciliations: List[TrafficReconciliation]
    tolerance: float

    def divergent(self) -> List[TrafficReconciliation]:
        """Reconciliations whose planes disagree beyond the tolerance."""
        return [r for r in self.reconciliations if not r.within_tolerance]

    def span_for(self, name: str) -> List[SpanAttribution]:
        return [s for s in self.spans if s.name == name]

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
                saved = totals.get("dram_bytes_saved", 0.0)
                note = f"  saved={saved / 1e6:.3f} MB" if saved else ""
                lines.append(
                    f"  {variant:<12} {totals['aggregation_dram_bytes'] / 1e6:9.3f} MB"
                    f" over {int(totals['spans'])} span(s){note}"
                )
        for rec in self.reconciliations:
            status = "ok" if rec.within_tolerance else "DIVERGENT"
            lines.append(
                f"reconcile {rec.variant:<12} model={rec.model_bytes / 1e6:.3f} MB "
                f"sim={rec.sim_bytes / 1e6:.3f} MB "
                f"err={rec.relative_error:.1%} (tol {rec.tolerance:.0%}) {status}"
            )
        return "\n".join(lines)


def sim_traffic_from_metrics(
    snapshot: Mapping[str, Mapping[str, float]],
) -> Dict[str, Dict[str, float]]:
    """Extract per-label simulator DRAM traffic from a metrics snapshot.

    Returns ``{label: {"bytes": total, "runs": n}}`` for every
    ``sim.<label>.dram.bytes_served`` counter (the unlabeled
    ``sim.dram.bytes_served`` appears under label ``""``).
    """
    out: Dict[str, Dict[str, float]] = {}
    suffix = ".dram.bytes_served"
    for name, metric in snapshot.items():
        if not name.startswith("sim.") or not name.endswith(suffix):
            continue
        label = name[len("sim."):-len(suffix)].rstrip(".")
        entry = out.setdefault(label, {"bytes": 0.0, "runs": 1.0})
        entry["bytes"] = float(metric.get("value", 0.0))
        runs = snapshot.get(f"sim.{label}.runs" if label else "sim.runs")
        if runs is not None and runs.get("value", 0.0) > 0:
            entry["runs"] = float(runs["value"])
    return out


def attribute_run(
    records: List[Dict[str, Any]],
    *,
    cost_model: Optional[Any] = None,
    machine: Optional[MachineConfig] = None,
    hit_rate: Optional[float] = None,
    sparsity: float = 0.0,
    metrics_snapshot: Optional[Mapping[str, Mapping[str, float]]] = None,
    sim_dram_bytes: Optional[Mapping[str, float]] = None,
    tolerance: float = DEFAULT_TRAFFIC_TOLERANCE,
) -> AttributionReport:
    """Attribute every kernel span of a traced run.

    Args:
        records: flat span records (``tracer.spans()`` mapped through
            ``to_record`` or re-read from JSONL).
        cost_model: optional :class:`repro.perf.CostModel` for the graph
            the run executed; supplies per-variant gather hit rates from
            the reuse profile of the variant's processing order.
        machine: platform model (defaults to the cost model's machine,
            else the paper's 28-core server).
        hit_rate: explicit gather hit rate overriding the cost model.
        sparsity: feature zero-fraction used for compression predictions.
        metrics_snapshot: a :meth:`MetricsRegistry.snapshot`; supplies
            simulator traffic (``sim.<variant>.dram.bytes_served``).
        sim_dram_bytes: explicit ``{variant: bytes-per-pass}`` simulator
            traffic, overriding the snapshot-derived values.
        tolerance: relative model-vs-sim disagreement flagged as
            divergence.
    """
    if machine is None:
        machine = cost_model.machine if cost_model is not None else cascade_lake_28()
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")

    spans: List[SpanAttribution] = []
    totals: Dict[str, Dict[str, float]] = {}
    for record in records:
        workload = workload_from_span(record)
        if workload is None:
            continue
        if hit_rate is not None:
            rate = hit_rate
        elif cost_model is not None:
            rate = cost_model.hit_rate(workload.spec.order)
        else:
            rate = 0.0
        cost = kernel_cost(
            machine, workload.spec, workload.shape, rate, sparsity,
            workload.write_a,
        )
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
                "dram_bytes_saved": 0.0,
            },
        )
        bucket["spans"] += 1.0
        bucket["duration_s"] += attribution.duration_s
        bucket["aggregation_dram_bytes"] += agg_bytes
        bucket["predicted_dram_bytes"] += total_bytes
        bucket["dram_bytes_saved"] += attribution.measured.get("dram_bytes_saved", 0.0)

    # ------------------------------------------------------------------
    # Reconcile model traffic against the cache simulator, where it ran.
    sim_per_pass: Dict[str, float] = {}
    if metrics_snapshot is not None:
        for label, entry in sim_traffic_from_metrics(metrics_snapshot).items():
            sim_per_pass[label] = entry["bytes"] / max(1.0, entry["runs"])
    if sim_dram_bytes is not None:
        sim_per_pass.update({k: float(v) for k, v in sim_dram_bytes.items()})

    reconciliations: List[TrafficReconciliation] = []
    for variant, bucket in totals.items():
        sim_bytes = sim_per_pass.get(variant)
        if sim_bytes is None or sim_bytes <= 0 or bucket["spans"] == 0:
            continue
        model_bytes = bucket["aggregation_dram_bytes"] / bucket["spans"]
        error = abs(model_bytes - sim_bytes) / sim_bytes
        reconciliations.append(
            TrafficReconciliation(
                variant=variant,
                model_bytes=model_bytes,
                sim_bytes=sim_bytes,
                relative_error=error,
                tolerance=tolerance,
                within_tolerance=error <= tolerance,
            )
        )

    return AttributionReport(
        spans=spans,
        technique_totals=totals,
        reconciliations=reconciliations,
        tolerance=tolerance,
    )
