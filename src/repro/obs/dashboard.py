"""Self-contained HTML run dashboard with inline SVG charts.

One offline file joins everything a training run emitted — the epoch
event log (:mod:`repro.obs.events`), an optional run report (metrics
snapshot + span summary) — into charts a reviewer can open without a
server, a network fetch, or JavaScript:

* loss and accuracy curves (two charts — different scales never share
  an axis);
* the per-layer hidden-feature sparsity trajectory (the Section 2.2
  profile that sizes compression's DRAM savings);
* per-layer gradient norms (the numerics trajectory the health guards
  watch);
* realized vs cost-model-predicted compression traffic savings;
* per-technique DRAM bytes from the attribution of the run report's
  kernel spans, when a report is supplied.

Every chart carries a ``<details>`` data table (the accessibility /
no-SVG fallback), colors follow one fixed categorical order validated
for color-vision deficiency, and light/dark render from the same CSS
custom properties.
"""

from __future__ import annotations

import html
import json
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .events import read_events

#: Fixed categorical slot order (validated palette; assign in order,
#: never cycle a 9th hue — extra layers fold into the table view).
_SERIES_LIGHT = (
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100",
    "#e87ba4", "#008300", "#4a3aa7", "#e34948",
)
_SERIES_DARK = (
    "#3987e5", "#d95926", "#199e70", "#c98500",
    "#d55181", "#008300", "#9085e9", "#e66767",
)

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
.viz-root {
  --page: #f9f9f7; --surface: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --good: #0ca30c; --critical: #d03b3b;
%(light_series)s
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --page: #0d0d0d; --surface: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
%(dark_series)s
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 8px; color: var(--ink); }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 24px; }
.tile {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 120px;
}
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 24px; font-weight: 600; }
.tile .value.bad { color: var(--critical); }
.tile .value.good { color: var(--good); }
.grid-2 { display: flex; flex-wrap: wrap; gap: 16px; }
figure.chart {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin: 0 0 16px;
}
figure.chart figcaption { font-weight: 600; margin-bottom: 8px; }
.legend { display: flex; flex-wrap: wrap; gap: 12px; margin: 4px 0 8px;
  color: var(--ink-2); font-size: 12px; }
.legend .key { display: inline-flex; align-items: center; gap: 5px; }
.legend .swatch { width: 10px; height: 10px; border-radius: 3px;
  display: inline-block; }
svg text { fill: var(--muted); font-size: 11px;
  font-family: system-ui, sans-serif; }
svg .tick { font-variant-numeric: tabular-nums; }
details { margin-top: 8px; color: var(--ink-2); font-size: 12px; }
details table { border-collapse: collapse; margin-top: 6px; }
details th, details td { padding: 2px 10px 2px 0; text-align: right;
  font-variant-numeric: tabular-nums; }
details th { color: var(--muted); font-weight: 500; }
ul.issues { margin: 0; padding-left: 20px; }
ul.issues li { color: var(--critical); }
footer { color: var(--muted); font-size: 12px; margin-top: 24px; }
"""


# ----------------------------------------------------------------------
# Formatting helpers
def _fmt(value: float, digits: int = 3) -> str:
    """Compact human number: 1234 -> 1.23K, 0.000012 -> 1.2e-05."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NaN"
    if isinstance(value, float) and math.isinf(value):
        return "Inf"
    magnitude = abs(value)
    for cut, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if magnitude >= cut:
            return f"{value / cut:.{digits - 1}f}{suffix}"
    if magnitude != 0 and magnitude < 1e-3:
        return f"{value:.1e}"
    return f"{value:.{digits}g}"


def _fmt_bytes(value: float) -> str:
    if value is None or not math.isfinite(value):
        return "NaN"
    magnitude = abs(value)
    for cut, suffix in ((1e9, "GB"), (1e6, "MB"), (1e3, "KB")):
        if magnitude >= cut:
            return f"{value / cut:.2f} {suffix}"
    return f"{value:.0f} B"


def _fmt_pct(value: float) -> str:
    if value is None or not math.isfinite(value):
        return "NaN"
    return f"{value * 100:.0f}%"


def _nice_ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    """Clean tick values covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw_step = span / max(1, count - 1)
    power = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = power * mult
        if span / step <= count:
            break
    start = math.floor(lo / step) * step
    ticks = []
    tick = start
    while tick <= hi + step * 1e-9:
        if tick >= lo - step * 1e-9:
            ticks.append(round(tick, 10))
        tick += step
    return ticks or [lo, hi]


# ----------------------------------------------------------------------
# Chart builders
class Series:
    """One plotted series: label + (x, y) points, colored by slot order."""

    __slots__ = ("label", "xs", "ys")

    def __init__(self, label: str, xs: Sequence[float], ys: Sequence[float]):
        self.label = label
        self.xs = list(xs)
        self.ys = list(ys)

    def finite_points(self) -> List[Tuple[float, float]]:
        return [
            (x, y)
            for x, y in zip(self.xs, self.ys)
            if y is not None and math.isfinite(y)
        ]


def _data_table(
    columns: List[str], rows: Iterable[Sequence[str]], summary: str = "data table"
) -> str:
    head = "".join(f"<th>{html.escape(col)}</th>" for col in columns)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(str(cell))}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return (
        f"<details><summary>{html.escape(summary)}</summary>"
        f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"
        "</details>"
    )


def line_chart(
    title: str,
    series: List[Series],
    *,
    y_format=_fmt,
    y_domain: Optional[Tuple[float, float]] = None,
    width: int = 520,
    height: int = 240,
) -> str:
    """One line chart as an HTML <figure> with inline SVG + data table."""
    margin_l, margin_r, margin_t, margin_b = 52, 14, 10, 26
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    finite = [p for s in series for p in s.finite_points()]
    all_x = [x for s in series for x in s.xs]
    x_lo, x_hi = (min(all_x), max(all_x)) if all_x else (0.0, 1.0)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_domain is not None:
        y_lo, y_hi = y_domain
    else:
        ys = [y for _, y in finite]
        y_lo = min(0.0, min(ys)) if ys else 0.0
        y_hi = max(ys) if ys else 1.0
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0
        y_hi *= 1.05

    def sx(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return margin_t + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts: List[str] = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        'role="img" xmlns="http://www.w3.org/2000/svg" '
        f'aria-label="{html.escape(title)}">'
    ]
    # Gridlines + y ticks (hairline, recessive).
    for tick in _nice_ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{margin_l}" y1="{y:.1f}" x2="{margin_l + plot_w}" '
            f'y2="{y:.1f}" stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text class="tick" x="{margin_l - 6}" y="{y + 3:.1f}" '
            f'text-anchor="end">{html.escape(y_format(tick))}</text>'
        )
    # Baseline + x ticks (integers for epochs).
    base_y = margin_t + plot_h
    parts.append(
        f'<line x1="{margin_l}" y1="{base_y}" x2="{margin_l + plot_w}" '
        f'y2="{base_y}" stroke="var(--axis)" stroke-width="1"/>'
    )
    for tick in _nice_ticks(x_lo, x_hi):
        if tick != int(tick):
            continue
        x = sx(tick)
        parts.append(
            f'<text class="tick" x="{x:.1f}" y="{base_y + 16}" '
            f'text-anchor="middle">{int(tick)}</text>'
        )
    parts.append(
        f'<text x="{margin_l + plot_w}" y="{height - 2}" text-anchor="end">'
        "epoch</text>"
    )
    # Series: 2px lines, ringed >=8px markers, <title> tooltips.
    show_markers = all(len(s.xs) <= 40 for s in series)
    for idx, s in enumerate(series):
        color = f"var(--s{(idx % 8) + 1})"
        points = s.finite_points()
        if len(points) > 1:
            path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in points)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
            )
        marked = points if show_markers else points[-1:]
        for x, y in marked:
            tooltip = f"{s.label} — epoch {int(x)}: {y_format(y)}"
            parts.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" fill="{color}" '
                f'stroke="var(--surface)" stroke-width="2">'
                f"<title>{html.escape(tooltip)}</title></circle>"
            )
    parts.append("</svg>")

    legend = ""
    if len(series) > 1:  # a single series is named by the title
        keys = "".join(
            '<span class="key"><span class="swatch" '
            f'style="background:var(--s{(idx % 8) + 1})"></span>'
            f"{html.escape(s.label)}</span>"
            for idx, s in enumerate(series)
        )
        legend = f'<div class="legend">{keys}</div>'

    columns = ["epoch"] + [s.label for s in series]
    by_x: Dict[float, List[str]] = {}
    for idx, s in enumerate(series):
        for x, y in zip(s.xs, s.ys):
            by_x.setdefault(x, ["" for _ in series])[idx] = y_format(y)
    rows = [[str(int(x))] + cells for x, cells in sorted(by_x.items())]
    return (
        '<figure class="chart">'
        f"<figcaption>{html.escape(title)}</figcaption>"
        f"{legend}{''.join(parts)}{_data_table(columns, rows)}"
        "</figure>"
    )


def bar_chart(
    title: str,
    items: List[Tuple[str, float]],
    *,
    y_format=_fmt_bytes,
    width: int = 520,
    height: int = 240,
) -> str:
    """Vertical bar chart: rounded data-end, square baseline, 2px gaps."""
    if not items:
        return ""
    margin_l, margin_r, margin_t, margin_b = 64, 14, 10, 26
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    values = [v for _, v in items if math.isfinite(v)]
    y_hi = max(values) * 1.05 if values and max(values) > 0 else 1.0

    def sy(y: float) -> float:
        return margin_t + (1.0 - y / y_hi) * plot_h

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        'role="img" xmlns="http://www.w3.org/2000/svg" '
        f'aria-label="{html.escape(title)}">'
    ]
    for tick in _nice_ticks(0.0, y_hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{margin_l}" y1="{y:.1f}" x2="{margin_l + plot_w}" '
            f'y2="{y:.1f}" stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text class="tick" x="{margin_l - 6}" y="{y + 3:.1f}" '
            f'text-anchor="end">{html.escape(y_format(tick))}</text>'
        )
    base_y = margin_t + plot_h
    parts.append(
        f'<line x1="{margin_l}" y1="{base_y}" x2="{margin_l + plot_w}" '
        f'y2="{base_y}" stroke="var(--axis)" stroke-width="1"/>'
    )
    slot_w = plot_w / max(1, len(items))
    bar_w = min(24.0, slot_w - 2.0)  # <=24px thick, 2px surface gap minimum
    radius = min(4.0, bar_w / 2.0)
    for idx, (label, value) in enumerate(items):
        color = f"var(--s{(idx % 8) + 1})"
        x = margin_l + slot_w * idx + (slot_w - bar_w) / 2.0
        if math.isfinite(value) and value > 0:
            top = sy(value)
            bar_h = base_y - top
            r = min(radius, bar_h)  # rounded data-end, square at baseline
            path = (
                f"M{x:.1f},{base_y:.1f} "
                f"L{x:.1f},{top + r:.1f} Q{x:.1f},{top:.1f} {x + r:.1f},{top:.1f} "
                f"L{x + bar_w - r:.1f},{top:.1f} "
                f"Q{x + bar_w:.1f},{top:.1f} {x + bar_w:.1f},{top + r:.1f} "
                f"L{x + bar_w:.1f},{base_y:.1f} Z"
            )
            parts.append(
                f'<path d="{path}" fill="{color}">'
                f"<title>{html.escape(f'{label}: {y_format(value)}')}</title></path>"
            )
            parts.append(
                f'<text class="tick" x="{x + bar_w / 2:.1f}" y="{top - 5:.1f}" '
                f'text-anchor="middle">{html.escape(y_format(value))}</text>'
            )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{base_y + 16}" '
            f'text-anchor="middle">{html.escape(label)}</text>'
        )
    parts.append("</svg>")
    rows = [[label, y_format(value)] for label, value in items]
    return (
        '<figure class="chart">'
        f"<figcaption>{html.escape(title)}</figcaption>"
        f"{''.join(parts)}{_data_table(['technique', 'value'], rows)}"
        "</figure>"
    )


# ----------------------------------------------------------------------
# Section builders
def _tile(label: str, value: str, state: str = "") -> str:
    cls = f"value {state}".strip()
    return (
        '<div class="tile">'
        f'<div class="label">{html.escape(label)}</div>'
        f'<div class="{cls}">{html.escape(value)}</div></div>'
    )


def _stat_tiles(
    events: List[Dict[str, Any]], report: Optional[Dict[str, Any]]
) -> str:
    tiles: List[str] = []
    if events:
        last = events[-1]
        tiles.append(_tile("Epochs", str(len(events))))
        tiles.append(_tile("Final loss", _fmt(last.get("loss"))))
        tiles.append(_tile("Final train acc", _fmt_pct(last.get("train_accuracy"))))
        if last.get("val_accuracy") is not None:
            tiles.append(_tile("Final val acc", _fmt_pct(last.get("val_accuracy"))))
        total_s = sum(e.get("wall_time_s", 0.0) for e in events)
        tiles.append(_tile("Train wall time", f"{total_s:.2f} s"))
        issues = sum(len(e.get("health_issues") or []) for e in events)
        tiles.append(
            _tile(
                "Health issues",
                str(issues),
                state="bad" if issues else "good",
            )
        )
    metrics = (report or {}).get("metrics") or {}
    rss = metrics.get("proc.rss_bytes.samples")
    if rss and rss.get("max"):
        tiles.append(_tile("Peak RSS", _fmt_bytes(rss["max"])))
    cpu = metrics.get("proc.cpu_percent.samples")
    if cpu and cpu.get("count"):
        tiles.append(_tile("Mean CPU", f"{cpu.get('mean', 0.0):.0f}%"))
    return f'<div class="tiles">{"".join(tiles)}</div>' if tiles else ""


def _alerts_section(
    events: List[Dict[str, Any]], report: Optional[Dict[str, Any]]
) -> str:
    """SLO verdict: the rule set, what fired, and when (by epoch).

    Reads the run report's ``alerts`` entry (a
    :class:`~repro.obs.rules.RuleEngine` dump) when present, and falls
    back to the ``slo:<rule>`` markers the trainer folds into each
    epoch's ``health_issues`` when only an event log is available.
    """
    doc = (report or {}).get("alerts")
    parts: List[str] = []
    if doc:
        rules = doc.get("rules") or []
        fired = doc.get("alerts") or []
        verdict = "ok" if doc.get("ok") else f"{len(fired)} alert(s)"
        parts.append(
            "<h2>SLO rules</h2>"
            f"<p class='sub'>{len(rules)} rule(s), "
            f"{doc.get('evaluations', 0)} evaluation(s) — "
            f"{html.escape(verdict)}</p>"
        )
        rows = []
        fired_by_rule: Dict[str, int] = {}
        for alert in fired:
            fired_by_rule[alert.get("rule", "?")] = (
                fired_by_rule.get(alert.get("rule", "?"), 0) + 1
            )
        for rule in rules:
            stat = rule.get("stat", "value")
            condition = " ".join(
                [rule.get("metric", "?")]
                + ([stat] if stat != "value" else [])
                + [rule.get("op", "?"), _fmt(rule.get("threshold", 0.0))]
            )
            rows.append(
                [
                    rule.get("name", "?"),
                    condition,
                    str(rule.get("for_count", 1)),
                    str(fired_by_rule.get(rule.get("name"), 0)),
                ]
            )
        parts.append(
            _data_table(
                ["rule", "condition", "for", "fired"], rows, summary="rule set"
            )
        )
        if fired:
            items = "".join(
                "<li>"
                + html.escape(
                    f"{a.get('rule')}: {a.get('metric')} = "
                    f"{_fmt(a.get('value', 0.0))} violates "
                    f"{a.get('op')} {_fmt(a.get('threshold', 0.0))} "
                    f"(evaluation {a.get('evaluation')})"
                )
                + "</li>"
                for a in fired
            )
            parts.append(f"<ul class='issues'>{items}</ul>")
        return "".join(parts)
    # Event-log-only fallback: the slo:<rule> health markers.
    lines = []
    for event in events:
        for kind in event.get("health_issues") or []:
            if isinstance(kind, str) and kind.startswith("slo:"):
                lines.append(f"epoch {event.get('epoch')}: {kind[4:]}")
    if not lines:
        return ""
    items = "".join(f"<li>{html.escape(line)}</li>" for line in lines)
    return f"<h2>SLO alerts</h2><ul class='issues'>{items}</ul>"


def _health_section(events: List[Dict[str, Any]]) -> str:
    lines = []
    for event in events:
        for kind in event.get("health_issues") or []:
            if isinstance(kind, str) and kind.startswith("slo:"):
                continue  # shown in the SLO section instead
            lines.append(f"epoch {event.get('epoch')}: {kind}")
    if not lines:
        return ""
    items = "".join(f"<li>{html.escape(line)}</li>" for line in lines)
    return f"<h2>Health findings</h2><ul class='issues'>{items}</ul>"


def _layer_series(
    events: List[Dict[str, Any]], field: str, pick
) -> List[Series]:
    """Per-layer series over epochs from a nested event field."""
    layers: Dict[str, Tuple[List[float], List[float]]] = {}
    for event in events:
        for layer, entry in (event.get(field) or {}).items():
            value = pick(entry)
            if value is None:
                continue
            xs, ys = layers.setdefault(str(layer), ([], []))
            xs.append(float(event["epoch"]))
            ys.append(float(value))
    return [
        Series(f"layer {layer}", xs, ys)
        for layer, (xs, ys) in sorted(layers.items(), key=lambda kv: kv[0])
    ]


def _event_charts(events: List[Dict[str, Any]]) -> List[str]:
    epochs = [float(e["epoch"]) for e in events]
    charts: List[str] = []
    charts.append(
        line_chart("Training loss", [Series("loss", epochs, [e["loss"] for e in events])])
    )
    acc_series = [
        Series("train", epochs, [e.get("train_accuracy") for e in events])
    ]
    if any(e.get("val_accuracy") is not None for e in events):
        acc_series.append(
            Series("val", epochs, [e.get("val_accuracy") for e in events])
        )
    charts.append(
        line_chart("Accuracy", acc_series, y_format=_fmt_pct, y_domain=(0.0, 1.0))
    )
    sparsity = _layer_series(events, "sparsity", lambda v: v)
    if sparsity:
        charts.append(
            line_chart(
                "Hidden-feature sparsity by layer (§2.2)",
                sparsity,
                y_format=_fmt_pct,
                y_domain=(0.0, 1.0),
            )
        )
    grads = _layer_series(
        events, "grad_norms", lambda entry: entry.get("weight")
    )
    if grads:
        charts.append(line_chart("Weight-gradient L2 norm by layer", grads))
    realized = [
        (e.get("compression") or {}).get("realized_dram_bytes_saved") for e in events
    ]
    predicted = [
        (e.get("compression") or {}).get("predicted_dram_bytes_saved") for e in events
    ]
    if any(v for v in realized) or any(v for v in predicted):
        charts.append(
            line_chart(
                "Compression DRAM bytes saved: realized vs predicted (§4.3)",
                [
                    Series("realized", epochs, realized),
                    Series("model-predicted", epochs, predicted),
                ],
                y_format=_fmt_bytes,
            )
        )
    return charts


def _technique_chart(report: Dict[str, Any]) -> str:
    """Per-technique DRAM bytes from the report's kernel spans."""
    spans = report.get("spans") or []
    try:
        from .attrib import attribute_run

        attribution = attribute_run(spans, metrics_snapshot=report.get("metrics"))
        totals = attribution.technique_totals
    except Exception:  # a foreign/partial report never breaks the dashboard
        return ""
    if not totals:
        return ""
    items = [
        (variant, bucket.get("aggregation_dram_bytes", 0.0))
        for variant, bucket in sorted(totals.items())
    ]
    return bar_chart("Aggregation DRAM bytes per technique (model)", items)


def _serving_section(report: Dict[str, Any]) -> str:
    """Serving-plane latency section, when ``serve.*`` metrics exist.

    Tiles for traffic + cache outcomes, then one bar chart of request
    p50/p95/p99 and a stage-latency table (queue / assemble / forward /
    request) so tail amplification between stages is visible.
    """
    metrics = report.get("metrics") or {}

    def counter(name: str) -> Optional[float]:
        doc = metrics.get(name) or {}
        value = doc.get("value")
        return float(value) if isinstance(value, (int, float)) else None

    requests = counter("serve.requests")
    if requests is None:
        return ""
    parts = ["<h2>Serving</h2>"]
    tiles = [_tile("Requests", _fmt(requests))]
    errors = counter("serve.errors") or 0.0
    rejected = counter("serve.rejected") or 0.0
    tiles.append(_tile("Errors", _fmt(errors), state="bad" if errors else "good"))
    if rejected:
        tiles.append(_tile("Shed (503)", _fmt(rejected), state="bad"))
    hits = counter("serve.cache.hits") or 0.0
    misses = counter("serve.cache.misses") or 0.0
    if hits + misses:
        tiles.append(_tile("Cache hit rate", _fmt_pct(hits / (hits + misses))))
    occupancy = metrics.get("serve.batch.occupancy") or {}
    if occupancy.get("count"):
        tiles.append(
            _tile(
                "Batch occupancy p50",
                _fmt(occupancy.get("p50") or 0.0),
            )
        )
    parts.append(f'<div class="tiles">{"".join(tiles)}</div>')

    request_hist = metrics.get("serve.latency.request_s") or {}
    if request_hist.get("count"):
        items = [
            (quantile, float(request_hist.get(quantile) or 0.0) * 1e3)
            for quantile in ("p50", "p95", "p99")
        ]
        parts.append(
            bar_chart(
                "Request latency percentiles",
                items,
                y_format=lambda v: f"{v:.2f} ms",
            )
        )
    stage_rows = []
    for stage, name in (
        ("queue", "serve.latency.queue_s"),
        ("assemble", "serve.latency.assemble_s"),
        ("forward", "serve.latency.forward_s"),
        ("request", "serve.latency.request_s"),
    ):
        doc = metrics.get(name) or {}
        if not doc.get("count"):
            continue
        stage_rows.append(
            [
                stage,
                f"{float(doc.get('p50') or 0.0) * 1e3:.2f} ms",
                f"{float(doc.get('p95') or 0.0) * 1e3:.2f} ms",
                f"{float(doc.get('p99') or 0.0) * 1e3:.2f} ms",
                str(doc.get("count", 0)),
            ]
        )
    if stage_rows:
        parts.append(
            _data_table(
                ["stage", "p50", "p95", "p99", "samples"],
                stage_rows,
                summary="stage latency breakdown",
            )
        )
    return "".join(parts)


def _span_summary(report: Dict[str, Any]) -> str:
    spans = report.get("spans") or []
    totals: Dict[str, Tuple[int, float]] = {}
    for record in spans:
        name = record.get("name", "?")
        count, duration = totals.get(name, (0, 0.0))
        totals[name] = (count + 1, duration + float(record.get("duration_s", 0.0)))
    if not totals:
        return ""
    rows = [
        [name, str(count), f"{duration * 1e3:.2f} ms"]
        for name, (count, duration) in sorted(
            totals.items(), key=lambda kv: -kv[1][1]
        )
    ]
    return (
        "<h2>Span summary</h2>"
        + _data_table(["span", "count", "total"], rows, summary="per-span totals")
    )


# ----------------------------------------------------------------------
def build_dashboard(
    events: Optional[List[Dict[str, Any]]] = None,
    header: Optional[Dict[str, Any]] = None,
    report: Optional[Dict[str, Any]] = None,
    title: str = "Training run",
) -> str:
    """Render the dashboard HTML string from already-loaded documents."""
    events = events or []
    sections: List[str] = []
    sections.append(_stat_tiles(events, report))
    sections.append(_health_section(events))
    sections.append(_alerts_section(events, report))
    charts = _event_charts(events) if events else []
    if report:
        technique = _technique_chart(report)
        if technique:
            charts.append(technique)
    sections.append(f'<div class="grid-2">{"".join(charts)}</div>')
    if report:
        sections.append(_serving_section(report))
        sections.append(_span_summary(report))

    meta = dict((header or {}).get("run") or {})
    if report:
        meta.setdefault("git_sha", (report.get("environment") or {}).get("git_sha"))
    subtitle = "  ·  ".join(
        f"{key}={value}" for key, value in meta.items() if value is not None
    )
    light_series = "\n".join(
        f"  --s{i + 1}: {hexcode};" for i, hexcode in enumerate(_SERIES_LIGHT)
    )
    dark_series = "\n".join(
        f"    --s{i + 1}: {hexcode};" for i, hexcode in enumerate(_SERIES_DARK)
    )
    css = _CSS % {"light_series": light_series, "dark_series": dark_series}
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{html.escape(title)}</title>\n"
        f"<style>{css}</style></head>\n"
        '<body class="viz-root">\n'
        f"<h1>{html.escape(title)}</h1>\n"
        f'<p class="sub">{html.escape(subtitle)}</p>\n'
        + "\n".join(section for section in sections if section)
        + "\n<footer>generated offline by <code>repro dashboard</code> — "
        "no scripts, no network fetches</footer>\n"
        "</body></html>\n"
    )


def write_dashboard(
    path: str,
    events_path: Optional[str] = None,
    report_path: Optional[str] = None,
    title: Optional[str] = None,
) -> str:
    """Load the artifacts, render, and write the dashboard file."""
    header = None
    events: List[Dict[str, Any]] = []
    if events_path:
        header, events = read_events(events_path)
    report = None
    if report_path:
        with open(report_path) as handle:
            report = json.load(handle)
    document = build_dashboard(
        events=events, header=header, report=report,
        title="Training run" if title is None else title,
    )
    with open(path, "w") as handle:
        handle.write(document)
    return path
