"""Unified run telemetry: span tracer, metrics registry, run reports.

Three pieces, one namespace (see the paper's quantitative methodology —
every Graphite claim is a counter or a time, so every run should emit
comparable, machine-readable telemetry):

* :mod:`repro.obs.trace` — hierarchical span tracer with a JSONL
  exporter; a traced training run yields the tree
  ``epoch -> layer -> kernel.<name>``;
* :mod:`repro.obs.metrics` — process-wide counters / gauges /
  histograms that kernels, the trainers and the rule engine publish
  into;
* :mod:`repro.obs.report` — the run record: the one manifest (command,
  argv, config, git revision, host, NumPy / SciPy / BLAS build) every
  file the program writes opens with, and the run-report JSON document
  joining it to spans + metrics.

Layered on top, the training-run observability pieces:

* :mod:`repro.obs.events` — streaming epoch-event JSONL log (loss,
  accuracies, per-layer grad/weight norms, fired rules) with a schema
  validator;
* :mod:`repro.obs.rules` — declarative rules over the registry and the
  trainer's ``train.*`` plane; the training numerics guards (NaN/Inf,
  loss divergence, convergence stall) are three of them, and a
  ``fatal`` rule stops the run with a layer/epoch diagnostic;
* :mod:`repro.obs.sampler` — background resource sampler feeding
  ``proc.*`` gauges/histograms (RSS, CPU%, threads) while
  ``--serve-metrics`` serves them; nothing else starts it.

Telemetry is **disabled by default and zero-cost when disabled**: the
module singletons are ``NULL_TRACER`` / ``NULL_REGISTRY`` whose methods
are no-ops, and instrumentation sits at region granularity (a kernel
invocation, an epoch), never inside per-vertex loops.  The CLI turns it
on where it is read (``cli._telemetry``): a live registry for a rule
engine or any telemetry flag, a live tracer only for ``--trace``,
``--json`` and ``repro profile``.

Typical use (what ``repro profile`` and ``--trace`` do)::

    from repro import obs

    tracer, metrics = obs.enable()
    ...  # run the workload
    manifest = obs.manifest("demo", [], {"seed": 0})
    tracer.export_jsonl("trace.jsonl", manifest)
    obs.write_json(
        "run.json", obs.build_run_report(tracer, metrics, manifest)
    )
    obs.disable()
"""

from __future__ import annotations

from typing import Tuple

from .attrib import AttributionReport, SpanAttribution, attribute_run
from .events import (
    EpochEvent,
    EventLog,
    EventTail,
    read_events,
    validate_epoch_event,
    validate_events,
    validate_events_file,
)
from .live import (
    LiveRunMonitor,
    MetricsServer,
    delta_snapshot,
    prometheus_name,
    render_prometheus,
    scrape_snapshot,
    sparkline,
)
from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    publish_counters,
)
from .rules import (
    Alert,
    DEFAULT_SERVE_RULES,
    DEFAULT_TRAIN_RULES,
    FatalRuleError,
    Rule,
    RuleEngine,
    RuleParseError,
    default_serve_rules,
    default_train_rules,
    load_rules,
    parse_rule,
    parse_rules,
)
from .report import (
    RECORD_SCHEMA_VERSION,
    build_run_report,
    manifest,
    span_tree,
    write_json,
)
from .sampler import ResourceSampler
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    read_trace,
    render_span_tree,
)

_tracer = NULL_TRACER
_metrics = NULL_REGISTRY


def get_tracer():
    """The active tracer (a no-op :class:`NullTracer` unless enabled)."""
    return _tracer


def get_metrics():
    """The active registry (a no-op :class:`NullRegistry` unless enabled)."""
    return _metrics


def set_tracer(tracer) -> None:
    global _tracer
    _tracer = tracer


def set_metrics(registry) -> None:
    global _metrics
    _metrics = registry


def enable() -> Tuple[Tracer, MetricsRegistry]:
    """Install (and return) a fresh live tracer + registry as the globals."""
    tracer, metrics = Tracer(), MetricsRegistry()
    set_tracer(tracer)
    set_metrics(metrics)
    return tracer, metrics


def disable() -> None:
    """Restore the zero-cost null tracer and registry."""
    set_tracer(NULL_TRACER)
    set_metrics(NULL_REGISTRY)


__all__ = [
    "AttributionReport",
    "SpanAttribution",
    "attribute_run",
    "Alert",
    "Counter",
    "EpochEvent",
    "EventLog",
    "EventTail",
    "FatalRuleError",
    "Gauge",
    "Histogram",
    "LiveRunMonitor",
    "MetricsRegistry",
    "MetricsServer",
    "NullRegistry",
    "NullTracer",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "DEFAULT_SERVE_RULES",
    "DEFAULT_TRAIN_RULES",
    "default_serve_rules",
    "default_train_rules",
    "ResourceSampler",
    "Rule",
    "RuleEngine",
    "RuleParseError",
    "RECORD_SCHEMA_VERSION",
    "Span",
    "Tracer",
    "build_run_report",
    "delta_snapshot",
    "disable",
    "enable",
    "get_metrics",
    "get_tracer",
    "load_rules",
    "manifest",
    "parse_rule",
    "parse_rules",
    "prometheus_name",
    "publish_counters",
    "read_events",
    "read_trace",
    "render_prometheus",
    "render_span_tree",
    "scrape_snapshot",
    "sparkline",
    "set_metrics",
    "set_tracer",
    "span_tree",
    "validate_epoch_event",
    "validate_events",
    "validate_events_file",
    "write_json",
]
