"""Perfetto / chrome://tracing export of span traces.

Converts the tracer's span records (plus, optionally, a metrics-registry
snapshot) into the Chrome trace-event JSON format, which both
``chrome://tracing`` and https://ui.perfetto.dev load directly.  The
mapping:

* every span record becomes one ``"X"`` (complete) event — ``ts``/``dur``
  in microseconds, nested by the viewer from the timestamps;
* worker spans (those carrying a ``worker_id`` attribute) are placed on
  their own thread lane (``tid = worker_id + 1``) so parallel chunk
  batches render side by side instead of stacked on the main thread;
* span counters become cumulative ``"C"`` (counter) tracks — one track
  per counter name, stepped at each span's end — and registry counters
  contribute one final sample each, so DRAM-bytes-saved and gather
  totals are plottable next to the timeline;
* ``"M"`` metadata events name the process and each thread lane.

The exported file is a plain JSON object ``{"traceEvents": [...]}`` —
the one Chrome-trace container Perfetto also accepts.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional

#: The single pid every event carries (one process per trace).
TRACE_PID = 1

#: Span counters promoted to cumulative counter tracks.  Everything the
#: kernels publish is additive, so a running sum over span end times is
#: a faithful "how much work so far" curve.
COUNTER_TRACK_KEYS = ("gathers", "flops", "dram_bytes_saved", "tasks")


def _span_tid(record: Mapping[str, Any]) -> int:
    """Thread lane of one span: workers get their own, the rest tid 0."""
    attrs = record.get("attrs") or {}
    worker = attrs.get("worker_id")
    if worker is None:
        return 0
    return int(worker) + 1


def _micros(seconds: float) -> float:
    return float(seconds) * 1e6


def chrome_trace_events(
    records: List[Dict[str, Any]],
    metrics_snapshot: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> List[Dict[str, Any]]:
    """Build the Chrome trace-event list for a list of span records.

    The returned list contains exactly one ``"X"`` event per span record,
    plus ``"C"`` counter samples and ``"M"`` metadata events.
    """
    events: List[Dict[str, Any]] = []
    tids = {0}
    spans = sorted(records, key=lambda r: r.get("start_s", 0.0))
    for record in spans:
        tid = _span_tid(record)
        tids.add(tid)
        attrs = record.get("attrs") or {}
        counters = record.get("counters") or {}
        args: Dict[str, Any] = dict(attrs)
        args.update(counters)
        name = record.get("name", "span")
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": _micros(record.get("start_s", 0.0)),
                "dur": _micros(record.get("duration_s", 0.0)),
                "pid": TRACE_PID,
                "tid": tid,
                "args": args,
            }
        )

    # Cumulative counter tracks, stepped at each span's end time.
    totals: Dict[str, float] = {}
    by_end = sorted(
        spans,
        key=lambda r: r.get("start_s", 0.0) + r.get("duration_s", 0.0),
    )
    for record in by_end:
        counters = record.get("counters") or {}
        end_ts = _micros(
            record.get("start_s", 0.0) + record.get("duration_s", 0.0)
        )
        for key in COUNTER_TRACK_KEYS:
            if key not in counters:
                continue
            totals[key] = totals.get(key, 0.0) + float(counters[key])
            events.append(
                {
                    "name": f"counters/{key}",
                    "ph": "C",
                    "ts": end_ts,
                    "pid": TRACE_PID,
                    "args": {key: totals[key]},
                }
            )

    # Registry counters: one closing sample each, at the trace's end.
    if metrics_snapshot:
        trace_end = max(
            (
                _micros(r.get("start_s", 0.0) + r.get("duration_s", 0.0))
                for r in spans
            ),
            default=0.0,
        )
        for name, metric in sorted(metrics_snapshot.items()):
            if metric.get("type") != "counter":
                continue
            events.append(
                {
                    "name": f"metrics/{name}",
                    "ph": "C",
                    "ts": trace_end,
                    "pid": TRACE_PID,
                    "args": {"value": float(metric.get("value", 0.0))},
                }
            )

    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "args": {"name": "repro"},
        }
    )
    for tid in sorted(tids):
        label = "main" if tid == 0 else f"worker-{tid - 1}"
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"name": label},
            }
        )
    return events


def chrome_trace(
    records: List[Dict[str, Any]],
    metrics_snapshot: Optional[Mapping[str, Mapping[str, float]]] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The full Chrome-trace JSON document for a span-record list."""
    return {
        "traceEvents": chrome_trace_events(records, metrics_snapshot),
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
    }


def write_chrome_trace(
    path: str,
    records: List[Dict[str, Any]],
    metrics_snapshot: Optional[Mapping[str, Mapping[str, float]]] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write a Perfetto-loadable trace file; returns the span-event count."""
    doc = chrome_trace(records, metrics_snapshot, meta)
    with open(path, "w") as handle:
        json.dump(doc, handle)
        handle.write("\n")
    return sum(1 for event in doc["traceEvents"] if event.get("ph") == "X")


def export_perfetto(
    path: str,
    tracer,
    metrics=None,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Convenience: export a live tracer (and registry) straight to disk."""
    records = [
        span.to_record()
        for span in sorted(tracer.spans(), key=lambda s: s.span_id)
    ]
    snapshot = metrics.snapshot() if metrics is not None else None
    return write_chrome_trace(path, records, snapshot, meta)
