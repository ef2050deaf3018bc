"""Live telemetry plane: metrics exposition endpoint + run monitor.

Everything else in :mod:`repro.obs` is post-hoc — spans, reports, and
dashboards exist only after the run finished.  This module observes a
run *while it is in flight*:

* :class:`MetricsServer` — a background HTTP/1.1 endpoint (routes over
  :class:`~repro.httpd.HTTPFrontEnd`) that renders the active
  :class:`~repro.obs.metrics.MetricsRegistry` at ``/metrics``
  (Prometheus text exposition format, version 0.0.4) and
  ``/snapshot.json`` (the raw snapshot plus a *delta view*: per-counter
  rates computed between consecutive scrapes, per-gauge staleness age,
  histogram p50/p95/p99).  ``repro train --serve-metrics PORT`` starts
  one for the duration of the run.
* :class:`LiveRunMonitor` — tails the schema-versioned epoch-event
  JSONL of an in-progress run (tolerating the partially flushed final
  line) and renders a refreshing terminal view: loss/accuracy trend
  sparklines, per-layer gradient norms, ``proc.*`` resource gauges
  (scraped from a ``MetricsServer`` or read from an in-process
  registry), the live epoch, and any firing SLO rules
  (:mod:`repro.obs.rules`).  ``repro top --follow run.jsonl`` drives it.

Only ``--serve-metrics`` starts a server (``cli._telemetry``): a run
without it opens no socket and spawns no thread.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
import urllib.request
from typing import Any, Dict, List, Mapping, Optional

from ..httpd import HTTPFrontEnd, Reply
from .events import EventTail, plane_over_snapshot, train_plane
from .rules import RuleEngine

logger = logging.getLogger(__name__)

#: Prefix every exposed Prometheus metric name carries.
PROMETHEUS_PREFIX = "repro_"

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: A gauge older than this (seconds) is flagged stale in live views.
STALE_AFTER_S = 5.0

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: Metric-name prefixes :class:`LiveRunMonitor` renders with bespoke
#: sections; anything else falls through to the generic family view.
_NATIVE_PLANES = ("train.", "proc.", "serve.")


# ----------------------------------------------------------------------
# Prometheus text exposition
def prometheus_name(name: str) -> str:
    """Map a dotted registry name onto the Prometheus charset.

    ``kernel.basic.gathers`` -> ``repro_kernel_basic_gathers``; any
    character outside ``[a-zA-Z0-9_:]`` becomes ``_``.
    """
    sanitized = "".join(
        ch if ch.isalnum() or ch in "_:" else "_" for ch in name
    )
    return PROMETHEUS_PREFIX + sanitized


def _prom_number(value: Any) -> str:
    if value is None:
        return "NaN"
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def render_prometheus(snapshot: Mapping[str, Mapping[str, Any]]) -> str:
    """Render a registry snapshot as Prometheus text exposition.

    Counters expose ``<name>_total``; gauges expose ``<name>``;
    histograms expose a summary — ``{quantile="0.5|0.95|0.99"}`` series
    plus ``_sum`` / ``_count`` — from the registry's own percentile
    estimates.  Every family carries ``# HELP`` (the original dotted
    name) and ``# TYPE`` lines, and the document ends with ``# EOF``-
    less plain text exactly as the 0.0.4 format expects.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        doc = snapshot[name]
        kind = doc.get("type")
        base = prometheus_name(name)
        if kind == "counter":
            lines.append(f"# HELP {base}_total registry counter {name}")
            lines.append(f"# TYPE {base}_total counter")
            lines.append(f"{base}_total {_prom_number(doc.get('value'))}")
        elif kind == "gauge":
            lines.append(f"# HELP {base} registry gauge {name}")
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base} {_prom_number(doc.get('value'))}")
        elif kind == "histogram":
            lines.append(f"# HELP {base} registry histogram {name}")
            lines.append(f"# TYPE {base} summary")
            for q_key, quantile in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
                lines.append(
                    f'{base}{{quantile="{quantile}"}} '
                    f"{_prom_number(doc.get(q_key))}"
                )
            lines.append(f"{base}_sum {_prom_number(doc.get('total'))}")
            count = doc.get("count", 0)
            lines.append(f"{base}_count {_prom_number(count)}")
        else:  # unknown metric kind: expose the value as an untyped sample
            lines.append(f"# TYPE {base} untyped")
            lines.append(f"{base} {_prom_number(doc.get('value'))}")
    return "\n".join(lines) + "\n"


def delta_snapshot(
    current: Mapping[str, Mapping[str, Any]],
    previous: Optional[Mapping[str, Mapping[str, Any]]],
    elapsed_s: Optional[float],
    now_monotonic: Optional[float] = None,
) -> Dict[str, Any]:
    """The ``/snapshot.json`` document: snapshot + between-scrape deltas.

    Each counter gains ``rate_per_s`` (delta over the elapsed time since
    the previous scrape; ``None`` on the first one), each gauge gains
    ``age_s`` (seconds since its last write, from the monotonic update
    timestamp — a dead sampler thread shows up as a growing age), and
    histograms carry their p50/p95/p99 through unchanged.
    """
    now = time.monotonic() if now_monotonic is None else now_monotonic
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, doc in current.items():
        out = dict(doc)
        kind = doc.get("type")
        if kind == "counter":
            rate = None
            if previous is not None and elapsed_s and elapsed_s > 0:
                before = (previous.get(name) or {}).get("value")
                if isinstance(before, (int, float)):
                    rate = (float(doc.get("value", 0.0)) - float(before)) / elapsed_s
            out["rate_per_s"] = rate
        elif kind == "gauge":
            updated = doc.get("updated_monotonic")
            out["age_s"] = (
                max(0.0, now - updated) if isinstance(updated, (int, float)) else None
            )
        metrics[name] = out
    return {
        "monotonic": now,
        "elapsed_s": elapsed_s,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Exposition endpoint
_TEXT = "text/plain; charset=utf-8"


class MetricsServer(HTTPFrontEnd):
    """Background HTTP exposition of a live metrics registry.

    The routes over :class:`~repro.httpd.HTTPFrontEnd`: binds
    ``127.0.0.1:port`` (``port=0`` picks an ephemeral port, reported by
    :attr:`port` / :attr:`url` after :meth:`start`) and serves scrapes
    from daemon threads, so the instrumented run is never blocked.
    Usable as a context manager.
    """

    def __init__(self, registry, port: int = 0) -> None:
        super().__init__("repro-metrics", port=port)
        self.registry = registry
        self._scrape_lock = threading.Lock()
        self._last_snapshot: Optional[Dict[str, Dict[str, Any]]] = None
        self._last_monotonic: Optional[float] = None

    def route(self, method: str, path: str, query: str, body: bytes) -> Reply:
        if method != "GET":
            return 405, _TEXT, b"GET only\n"
        if path == "/metrics":
            text = render_prometheus(self.registry.snapshot())
            return 200, PROMETHEUS_CONTENT_TYPE, text.encode()
        if path == "/snapshot.json":
            document = json.dumps(self.delta_snapshot(), allow_nan=True)
            return 200, "application/json", document.encode()
        if path in ("/", "/healthz"):
            return 200, _TEXT, (
                "repro live metrics endpoint\n"
                "GET /metrics       Prometheus text exposition\n"
                "GET /snapshot.json snapshot with between-scrape deltas\n"
            ).encode()
        return 404, _TEXT, b"not found\n"

    def delta_snapshot(self) -> Dict[str, Any]:
        """Snapshot + deltas vs the previous scrape (advances the state)."""
        now = time.monotonic()
        current = self.registry.snapshot()
        with self._scrape_lock:
            elapsed = (
                now - self._last_monotonic
                if self._last_monotonic is not None
                else None
            )
            document = delta_snapshot(current, self._last_snapshot, elapsed, now)
            self._last_snapshot = current
            self._last_monotonic = now
        return document


def scrape_snapshot(url: str) -> Dict[str, Any]:
    """GET ``<url>/snapshot.json`` (2 s timeout) and return the parsed
    document."""
    target = url.rstrip("/") + "/snapshot.json"
    with urllib.request.urlopen(target, timeout=2.0) as response:
        return json.loads(response.read().decode())


# ----------------------------------------------------------------------
# Terminal run monitor
def sparkline(values: List[float]) -> str:
    """Unicode block sparkline of the last 40 finite values."""
    finite = [v for v in values if v is not None and math.isfinite(v)]
    if not finite:
        return ""
    tail = finite[-40:]
    lo, hi = min(tail), max(tail)
    span = hi - lo
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(tail)
    return "".join(
        _SPARK_BLOCKS[
            min(len(_SPARK_BLOCKS) - 1, int((v - lo) / span * len(_SPARK_BLOCKS)))
        ]
        for v in tail
    )


def _fmt_bytes(value: Optional[float]) -> str:
    if value is None or not math.isfinite(value):
        return "?"
    for cut, suffix in ((1e9, "GB"), (1e6, "MB"), (1e3, "KB")):
        if abs(value) >= cut:
            return f"{value / cut:.1f} {suffix}"
    return f"{value:.0f} B"


class LiveRunMonitor:
    """Terminal view of an in-progress (or finished) training run.

    Args:
        events_path: the run's epoch-event JSONL (may still be growing).
        metrics_url: base URL of a :class:`MetricsServer` to scrape for
            ``proc.*`` / ``serve.*`` gauges (cross-process case).
        registry: an in-process registry to read instead of scraping.
        rules: optional :class:`~repro.obs.rules.RuleEngine`; evaluated
            once per newly observed epoch (event-derived ``train.*``
            plane merged over the scraped metrics), so ``for K`` streaks
            advance in epochs exactly as in the trainer hook.

    A gauge older than :data:`STALE_AFTER_S` is flagged STALE.
    """

    def __init__(
        self,
        events_path: str,
        metrics_url: Optional[str] = None,
        registry=None,
        rules: Optional[RuleEngine] = None,
    ) -> None:
        self.tail = EventTail(events_path)
        self.metrics_url = metrics_url
        self.registry = registry
        self.rules = rules
        self.events: List[Dict[str, Any]] = []
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.polls = 0

    # ------------------------------------------------------------------
    def _scrape(self) -> Dict[str, Dict[str, Any]]:
        if self.registry is not None:
            snapshot = self.registry.snapshot()
            return delta_snapshot(snapshot, None, None)["metrics"]
        if self.metrics_url:
            try:
                return scrape_snapshot(self.metrics_url).get("metrics", {})
            except (OSError, ValueError) as error:
                logger.debug("scrape failed: %s", error)
        return {}

    def poll(self) -> List[Dict[str, Any]]:
        """Ingest new events + a metrics scrape; evaluate rules per epoch."""
        self.polls += 1
        new_events = self.tail.read_new()
        self.metrics = self._scrape()
        if self.rules is not None:
            if new_events:
                for event in new_events:
                    self.rules.evaluate(
                        plane_over_snapshot(self.metrics, train_plane(event))
                    )
            elif not self.events and self.metrics:
                # No event stream at all: pure metrics monitoring.
                self.rules.evaluate(self.metrics)
        self.events.extend(new_events)
        return new_events

    # ------------------------------------------------------------------
    def _number(self, name: str, key: str = "value") -> Optional[float]:
        """Field ``key`` of metric ``name`` when it is a number."""
        value = (self.metrics.get(name) or {}).get(key)
        return float(value) if isinstance(value, (int, float)) else None

    def _hist(self, name: str) -> Optional[Dict[str, Any]]:
        doc = self.metrics.get(name)
        return doc if doc and doc.get("type") == "histogram" else None

    def render(self) -> str:
        """One frame of the live view (plain text, no ANSI)."""
        lines: List[str] = []
        meta = (self.tail.header or {}).get("run") or {}
        title = " ".join(
            f"{key}={value}"
            for key, value in meta.items()
            if value is not None and key in
            ("command", "dataset", "model", "epochs", "shards", "backend")
        )
        lines.append(f"== repro top == {title}".rstrip())

        if self.events:
            last = self.events[-1]
            losses = [e.get("loss") for e in self.events]
            accs = [e.get("train_accuracy") for e in self.events]
            val = last.get("val_accuracy")
            lines.append(
                f"epoch {last.get('epoch'):>4}  "
                f"loss {last.get('loss'):.4f}  "
                f"acc {last.get('train_accuracy'):.3f}"
                + (f"  val {val:.3f}" if val is not None else "")
                + f"  {last.get('wall_time_s', 0.0):.3f}s/epoch"
            )
            lines.append(f"loss  {sparkline(losses)}")
            lines.append(f"acc   {sparkline(accs)}")
            grad_norms = last.get("grad_norms") or {}
            if grad_norms:
                cells = []
                for layer in sorted(grad_norms, key=str):
                    entry = grad_norms[layer] or {}
                    weight = entry.get("weight")
                    if isinstance(weight, (int, float)):
                        cells.append(f"L{layer}:{weight:.3g}")
                if cells:
                    lines.append("grad|w| " + "  ".join(cells))
            issues = [
                f"epoch {e.get('epoch')}: {kind}"
                for e in self.events
                for kind in (e.get("health_issues") or [])
            ]
            for issue in issues[-3:]:
                lines.append(f"health  {issue}")
        else:
            lines.append("(no epoch events yet)")

        rss = self._number("proc.rss_bytes")
        if rss is not None:
            cpu = self._number("proc.cpu_percent")
            threads = self._number("proc.num_threads")
            age = self._number("proc.rss_bytes", "age_s")
            stale = age is not None and age > STALE_AFTER_S
            lines.append(
                f"proc  rss {_fmt_bytes(rss)}"
                + (f"  cpu {cpu:.0f}%" if cpu is not None else "")
                + (f"  threads {threads:.0f}" if threads is not None else "")
                + ("  [STALE]" if stale else "")
            )

        live_epoch = self._number("train.epoch")
        if live_epoch is not None:
            lines.append(f"phase epoch {live_epoch:.0f}")

        lines.extend(self._render_serve())
        lines.extend(self._render_other_families())

        if self.rules is not None:
            active = self.rules.active
            if active:
                lines.append(f"SLO   {len(active)} rule(s) FIRING: "
                             + ", ".join(active))
                for alert in self.rules.alerts[-3:]:
                    lines.append(f"  {alert.message}")
            else:
                lines.append(
                    f"SLO   ok ({len(self.rules.rules)} rule(s), "
                    f"{self.rules.evaluations} evaluation(s))"
                )
        return "\n".join(lines)

    def _render_serve(self) -> List[str]:
        """The serving plane, when ``serve.*`` metrics are present."""
        requests = self._number("serve.requests")
        if requests is None:
            return []
        lines: List[str] = []
        rate = self._number("serve.requests", "rate_per_s")
        rejected = self._number("serve.rejected") or 0.0
        errors = self._number("serve.errors") or 0.0
        bits = [f"requests {requests:.0f}"]
        if rate is not None:
            bits.append(f"{rate:.1f} req/s")
        if errors:
            bits.append(f"{errors:.0f} error(s)")
        if rejected:
            bits.append(f"{rejected:.0f} rejected")
        depth = self._number("serve.queue_depth")
        inflight = self._number("serve.inflight")
        if depth is not None:
            bits.append(f"queue {depth:.0f}")
        if inflight is not None and inflight:
            bits.append(f"inflight {inflight:.0f}")
        lines.append("serve " + "  ".join(bits))
        hits = self._number("serve.cache.hits")
        misses = self._number("serve.cache.misses")
        if hits is not None or misses is not None:
            total = (hits or 0.0) + (misses or 0.0)
            hit_pct = 100.0 * (hits or 0.0) / total if total else 0.0
            size = self._number("serve.cache.size")
            lines.append(
                f"cache hit {hit_pct:.0f}% ({(hits or 0):.0f}/{total:.0f})"
                + (f"  size {size:.0f}" if size is not None else "")
            )
        latency = self._hist("serve.latency.request_s")
        if latency:
            lines.append(
                "lat   p50 {:.1f} ms  p95 {:.1f} ms  p99 {:.1f} ms "
                "({} sample(s))".format(
                    (latency.get("p50") or 0.0) * 1e3,
                    (latency.get("p95") or 0.0) * 1e3,
                    (latency.get("p99") or 0.0) * 1e3,
                    latency.get("count", 0),
                )
            )
        occupancy = self._hist("serve.batch.occupancy")
        if occupancy:
            lines.append(
                f"batch occupancy p50 {occupancy.get('p50') or 0:.1f}  "
                f"p95 {occupancy.get('p95') or 0:.1f}  "
                f"({occupancy.get('count', 0)} batch(es))"
            )
        return lines

    def _render_other_families(self, max_lines: int = 8) -> List[str]:
        """Generic one-line-per-family view of unrecognized metrics.

        Anything outside the planes the view renders natively
        (``train.*`` / ``proc.*`` / ``serve.*``) is
        grouped by its first dotted segment, so new subsystems show up
        in ``repro top`` the day they start publishing, without a
        bespoke section.
        """
        families: Dict[str, List[str]] = {}
        for name in sorted(self.metrics):
            if name.startswith(_NATIVE_PLANES):
                continue
            doc = self.metrics[name]
            kind = doc.get("type")
            short = name.split(".", 1)[1] if "." in name else name
            if kind == "counter":
                rate = doc.get("rate_per_s")
                cell = f"{short} {doc.get('value', 0):g}"
                if isinstance(rate, (int, float)):
                    cell += f" ({rate:.1f}/s)"
            elif kind == "gauge":
                value = doc.get("value")
                cell = (
                    f"{short}={value:g}"
                    if isinstance(value, (int, float))
                    else f"{short}=?"
                )
            elif kind == "histogram":
                cell = (
                    f"{short} p50={doc.get('p50') or 0:.3g} "
                    f"p99={doc.get('p99') or 0:.3g} n={doc.get('count', 0)}"
                )
            else:
                cell = f"{short}={doc.get('value')}"
            families.setdefault(name.split(".", 1)[0], []).append(cell)
        lines: List[str] = []
        for family in sorted(families):
            if len(lines) >= max_lines:
                lines.append(
                    f"…     {len(families) - max_lines} more familie(s)"
                )
                break
            lines.append(f"{family[:5]:<5} " + "  ".join(families[family][:6]))
        return lines

    # ------------------------------------------------------------------
    def follow(
        self,
        interval_s: float = 1.0,
        refresh_limit: Optional[int] = None,
        stream=None,
    ) -> int:
        """Poll + render in a loop (``repro top --follow``).

        Stops after ``refresh_limit`` frames when given (testing /
        bounded watches); otherwise runs until KeyboardInterrupt.
        Returns the number of frames rendered.
        """
        import sys

        stream = sys.stdout if stream is None else stream
        frames = 0
        try:
            while True:
                self.poll()
                stream.write("\x1b[2J\x1b[H")
                stream.write(self.render() + "\n")
                stream.flush()
                frames += 1
                if refresh_limit is not None and frames >= refresh_limit:
                    break
                time.sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        return frames
