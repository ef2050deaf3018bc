"""Hierarchical span tracer with a JSONL exporter.

A *span* is one timed region of a run — an epoch, a layer, one kernel
invocation, one serving batch — with a name, key/value
attributes, and numeric *counters* (the :class:`~repro.kernels.base.
KernelStats` quantities the kernel attached).  Spans nest: entering a
span while another is active makes it a child, so a traced training run
produces the tree ``epoch -> layer -> kernel.<name>``.

Tracing is **off by default and zero-cost when off**: the module-level
tracer is a :class:`NullTracer` whose ``span()`` returns one shared
no-op span object, so instrumented code pays a single attribute lookup
and method call per *region* (never per vertex — hot loops are not
instrumented).  Enable it by installing a real :class:`Tracer` with
:func:`set_tracer` (the CLI's ``--trace`` flag and ``repro profile`` do
this).

Export format (one JSON object per line):

* line 1 — a header record: ``{"kind": "trace_header", "schema": 1,
  "epoch_unix": ..., "spans": N}``;
* every following line — a span record: ``{"kind": "span", "span_id",
  "parent_id", "name", "start_s", "duration_s", "attrs", "counters"}``
  where ``start_s`` is seconds since the tracer was created and
  ``parent_id`` is ``null`` for roots.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .events import _read_headed

#: Version of the span record layout written by :meth:`Tracer.export_jsonl`.
TRACE_SCHEMA_VERSION = 1


@dataclass
class Span:
    """One timed, attributed region of the run."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    duration_s: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def add_counters(self, counters: Dict[str, float]) -> None:
        """Accumulate numeric counters onto this span (sums on repeat)."""
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + float(value)

    def to_record(self) -> Dict[str, Any]:
        return {
            "kind": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
            "counters": self.counters,
        }


class _ActiveSpan:
    """Context manager binding a :class:`Span` to a tracer's stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    # Convenience passthroughs so ``with tracer.span(...) as sp`` exposes
    # the same surface as the null span.
    def set_attr(self, key: str, value: Any) -> None:
        self.span.set_attr(key, value)

    def add_counters(self, counters: Dict[str, float]) -> None:
        self.span.add_counters(counters)

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._push(self.span)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.span.duration_s = self._tracer.clock() - self.span.start_s
        self._tracer._pop(self.span)


class NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def add_counters(self, counters: Dict[str, float]) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = NullSpan()


class NullTracer:
    """Tracer API with every operation a no-op (the disabled default)."""

    enabled = False

    def span(
        self, name: str, parent: Optional["Span"] = None, **attrs: Any
    ) -> NullSpan:
        return _NULL_SPAN

    def record(
        self,
        name: str,
        duration_s: float,
        attrs: Optional[Dict[str, Any]] = None,
        parent: Optional["Span"] = None,
    ) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Collects a forest of spans; thread-safe, append-only.

    Each thread keeps its own active-span stack, so worker threads that
    open spans nest them under their own ancestry; spans recorded for
    workers after the fact (:meth:`record`) attach to the recording
    thread's current span.
    """

    enabled = True

    def __init__(self) -> None:
        self.epoch_unix = time.time()
        self._epoch_perf = time.perf_counter()
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self.finished: List[Span] = []

    # ------------------------------------------------------------------
    def clock(self) -> float:
        """Seconds since this tracer was created (monotonic)."""
        return time.perf_counter() - self._epoch_perf

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    def span(
        self, name: str, parent: Optional[Span] = None, **attrs: Any
    ) -> _ActiveSpan:
        """Open a child span of the caller's current span.

        ``parent`` overrides the implicit stack parent — the serving
        path uses it to hang a worker-thread span (``serve.batch``)
        under the request span opened on the HTTP handler thread.
        """
        if parent is None:
            parent = self.current()
        span = Span(
            span_id=self._new_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start_s=self.clock(),
            attrs=dict(attrs),
        )
        return _ActiveSpan(self, span)

    def record(
        self,
        name: str,
        duration_s: float,
        attrs: Optional[Dict[str, Any]] = None,
        parent: Optional[Span] = None,
    ) -> Span:
        """Add an already-measured span (e.g. a request's queue wait),
        ending now.

        The span becomes a child of the calling thread's current span
        unless an explicit ``parent`` is given (cross-thread spans).
        """
        if parent is None:
            parent = self.current()
        span = Span(
            span_id=self._new_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start_s=self.clock() - duration_s,
            duration_s=duration_s,
            attrs=dict(attrs or {}),
        )
        with self._lock:
            self.finished.append(span)
        return span

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.finished.append(span)

    # ------------------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Finished spans, optionally filtered by exact name or prefix.

        A trailing ``*`` in ``name`` matches by prefix, e.g.
        ``spans("kernel.*")``.
        """
        with self._lock:
            out = list(self.finished)
        if name is None:
            return out
        if name.endswith("*"):
            prefix = name[:-1]
            return [s for s in out if s.name.startswith(prefix)]
        return [s for s in out if s.name == name]

    def aggregate_counters(self, name: Optional[str] = None) -> Dict[str, float]:
        """Sum counters over finished spans (optionally name-filtered)."""
        totals: Dict[str, float] = {}
        for span in self.spans(name):
            for key, value in span.counters.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    # ------------------------------------------------------------------
    def export_jsonl(self, path: str) -> int:
        """Write the trace; returns the number of span records written."""
        spans = sorted(self.spans(), key=lambda s: s.span_id)
        header = {
            "kind": "trace_header",
            "schema": TRACE_SCHEMA_VERSION,
            "epoch_unix": self.epoch_unix,
            "spans": len(spans),
        }
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in spans:
                handle.write(json.dumps(span.to_record()) + "\n")
        return len(spans)


def read_trace(path: str) -> "tuple[Dict[str, Any], List[Dict[str, Any]]]":
    """Load a JSONL trace; returns (header, span records)."""
    return _read_headed(path, "trace_header", "span")


def span_tree(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Nest flat span records into a tree (adds a ``children`` list)."""
    by_id: Dict[int, Dict[str, Any]] = {}
    for rec in records:
        node = dict(rec)
        node["children"] = []
        by_id[node["span_id"]] = node
    roots: List[Dict[str, Any]] = []
    for node in by_id.values():
        parent = (
            by_id.get(node["parent_id"]) if node["parent_id"] is not None else None
        )
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    for node in by_id.values():
        node["children"].sort(key=lambda c: c["span_id"])
    roots.sort(key=lambda n: n["span_id"])
    return roots


def render_span_tree(records: List[Dict[str, Any]]) -> str:
    """Human-readable indented rendering of a span forest: each span's
    four largest counters ride on its line."""
    lines: List[str] = []

    def walk(node: Dict[str, Any], depth: int) -> None:
        label = f"{'  ' * depth}{node['name']}"
        line = f"{label:<40} {node['duration_s'] * 1e3:9.2f} ms"
        counters = node.get("counters") or {}
        nonzero = [(k, v) for k, v in counters.items() if v]
        if nonzero:
            shown = sorted(nonzero, key=lambda kv: (-abs(kv[1]), kv[0]))
            line += "  " + " ".join(
                f"{k}={v:g}" for k, v in shown[:4]
            )
        lines.append(line)
        for child in node["children"]:
            walk(child, depth + 1)

    for root in span_tree(records):
        walk(root, 0)
    return "\n".join(lines)
