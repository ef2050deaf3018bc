"""Unit tests for the self-contained HTML run dashboard."""

import json

import pytest

from repro.obs.dashboard import (
    Series,
    _fmt,
    _fmt_bytes,
    _fmt_pct,
    _nice_ticks,
    bar_chart,
    build_dashboard,
    line_chart,
    write_dashboard,
)
from repro.obs.events import EpochEvent, EventLog


def make_event(epoch=0, **overrides):
    kwargs = dict(
        epoch=epoch,
        loss=2.0 - 0.2 * epoch,
        train_accuracy=0.2 + 0.1 * epoch,
        wall_time_s=0.01,
        val_accuracy=0.15 + 0.1 * epoch,
        grad_norms={"0": {"weight": 0.1, "bias": 0.01, "h_in": 0.2},
                    "1": {"weight": 0.2, "bias": 0.02, "h_in": 0.1}},
        weight_norms={"0": {"weight": 1.0, "bias": 0.1}},
        sparsity={"0": 0.0, "1": 0.5 + 0.05 * epoch},
        compression={
            "realized_dram_bytes_saved": 100.0 * epoch,
            "predicted_dram_bytes_saved": 1024.0 + 10.0 * epoch,
        },
    )
    kwargs.update(overrides)
    return EpochEvent(**kwargs)


@pytest.fixture
def events():
    return [make_event(epoch).to_record() for epoch in range(4)]


class TestCharts:
    def test_line_chart_basics(self):
        svg = line_chart(
            "Training loss", [Series("loss", [0, 1, 2], [2.0, 1.5, 1.2])]
        )
        assert "<svg" in svg and "polyline" in svg
        assert "Training loss" in svg
        assert "<details" in svg  # data-table fallback
        # One series: the title names it, no legend box.
        assert 'class="legend"' not in svg

    def test_line_chart_legend_for_two_series(self):
        svg = line_chart(
            "Accuracy",
            [Series("train", [0, 1], [0.2, 0.4]), Series("val", [0, 1], [0.1, 0.3])],
        )
        assert 'class="legend"' in svg
        assert "train" in svg and "val" in svg

    def test_line_chart_skips_non_finite_points(self):
        svg = line_chart(
            "loss", [Series("loss", [0, 1, 2], [1.0, float("nan"), 0.5])]
        )
        assert "NaN" not in svg.split("<details")[0]  # no NaN coordinates

    def test_line_chart_all_nan_series(self):
        svg = line_chart("loss", [Series("loss", [0, 1], [float("nan")] * 2)])
        assert "<svg" in svg  # degrades, never crashes

    def test_bar_chart_basics(self):
        svg = bar_chart("Bytes by technique", [("basic", 0.0), ("compression", 2048.0)])
        assert "<svg" in svg
        assert "compression" in svg
        assert "2.05 KB" in svg

    def test_bar_chart_empty(self):
        assert bar_chart("empty", []) == ""


class TestFormatters:
    def test_fmt_compact(self):
        assert _fmt(1234) == "1.23K"
        assert _fmt(2.5e6) == "2.50M"
        assert _fmt(float("nan")) == "NaN"

    def test_fmt_bytes(self):
        assert _fmt_bytes(512) == "512 B"
        assert _fmt_bytes(2048) == "2.05 KB"

    def test_fmt_pct(self):
        assert _fmt_pct(0.62) == "62%"

    def test_nice_ticks_inside_domain(self):
        ticks = _nice_ticks(0.0, 0.93)
        assert ticks == sorted(ticks)
        assert ticks[0] >= 0.0 and ticks[-1] <= 0.93
        assert len(ticks) >= 2

    def test_nice_ticks_degenerate_domain(self):
        assert len(_nice_ticks(1.0, 1.0)) >= 2


class TestBuildDashboard:
    def test_self_contained(self, events):
        html = build_dashboard(events=events)
        assert "<script" not in html.lower()
        assert "https://" not in html
        assert 'rel="stylesheet"' not in html  # CSS is inline

    def test_core_charts_present(self, events):
        html = build_dashboard(events=events)
        assert "Training loss" in html
        assert "Accuracy" in html
        assert "sparsity" in html.lower()
        assert "gradient" in html.lower() or "grad" in html.lower()
        assert "realized vs predicted" in html

    def test_dark_mode_and_palette(self, events):
        html = build_dashboard(events=events)
        assert "prefers-color-scheme: dark" in html
        assert "#2a78d6" in html  # series-1, light
        assert "#3987e5" in html  # series-1, dark

    def test_health_findings_section(self):
        bad = make_event(2, health_issues=["non_finite"]).to_record()
        html = build_dashboard(events=[make_event(0).to_record(), bad])
        assert "Health findings" in html
        assert "epoch 2: non_finite" in html

    def test_no_health_section_when_clean(self, events):
        assert "Health findings" not in build_dashboard(events=events)

    def test_alerts_section_from_report(self, events):
        report = {
            "spans": [],
            "metrics": {},
            "alerts": {
                "rules": [
                    {"name": "loss_cap", "metric": "train.loss",
                     "stat": "value", "op": "<", "threshold": 1e-6,
                     "for_count": 1},
                ],
                "evaluations": 4,
                "alerts": [
                    {"rule": "loss_cap", "metric": "train.loss",
                     "stat": "value", "op": "<", "threshold": 1e-6,
                     "value": 2.1, "consecutive": 1, "evaluation": 1},
                ],
                "active": ["loss_cap"],
                "ok": False,
            },
        }
        html = build_dashboard(events=events, report=report)
        assert "SLO rules" in html
        assert "loss_cap" in html
        assert "1 alert(s)" in html

    def test_alerts_section_ok_report(self, events):
        report = {
            "spans": [], "metrics": {},
            "alerts": {"rules": [], "evaluations": 2, "alerts": [],
                       "active": [], "ok": True},
        }
        html = build_dashboard(events=events, report=report)
        assert "SLO rules" in html and "ok" in html

    def test_slo_markers_split_from_health(self):
        # slo: issues render in the SLO section, not Health findings.
        bad = make_event(
            1, health_issues=["non_finite", "slo:loss_cap"]
        ).to_record()
        html = build_dashboard(events=[make_event(0).to_record(), bad])
        assert "SLO alerts" in html
        assert "epoch 1: loss_cap" in html
        assert "epoch 1: non_finite" in html
        assert "epoch 1: slo:loss_cap" not in html

    def test_report_only_dashboard(self):
        report = {
            "spans": [
                {"name": "epoch", "duration_s": 0.5},
                {"name": "epoch", "duration_s": 0.4},
            ],
            "metrics": {},
            "environment": {"git_sha": "abc1234"},
        }
        html = build_dashboard(report=report, title="Spans only")
        assert "Span summary" in html
        assert "abc1234"[:7] in html

    def test_empty_inputs_still_render(self):
        html = build_dashboard()
        assert "<html" in html


class TestWriteDashboard:
    def test_end_to_end(self, tmp_path, events):
        events_path = str(tmp_path / "run.jsonl")
        with EventLog(events_path, meta={"dataset": "products"}) as log:
            for epoch in range(3):
                log.emit(make_event(epoch))
        report_path = str(tmp_path / "run.json")
        with open(report_path, "w") as handle:
            json.dump({"spans": [], "metrics": {}, "environment": {}}, handle)
        out = str(tmp_path / "run.html")
        write_dashboard(out, events_path=events_path, report_path=report_path)
        html = open(out).read()
        assert "<script" not in html.lower()
        assert "https://" not in html
        assert "Training loss" in html
        assert "products" in html  # run meta lands in the subtitle


class TestServingSection:
    def serve_report(self):
        return {
            "metrics": {
                "serve.requests": {"type": "counter", "value": 200.0},
                "serve.errors": {"type": "counter", "value": 0.0},
                "serve.cache.hits": {"type": "counter", "value": 150.0},
                "serve.cache.misses": {"type": "counter", "value": 50.0},
                "serve.batch.occupancy": {
                    "type": "histogram", "count": 20, "p50": 3.0, "p95": 8.0,
                },
                "serve.latency.request_s": {
                    "type": "histogram", "count": 200,
                    "p50": 0.002, "p95": 0.008, "p99": 0.02,
                },
                "serve.latency.queue_s": {
                    "type": "histogram", "count": 200,
                    "p50": 0.0005, "p95": 0.001, "p99": 0.002,
                },
            }
        }

    def test_serving_section_rendered(self):
        page = build_dashboard(report=self.serve_report())
        assert "Serving" in page
        assert "Cache hit rate" in page
        assert "Request latency percentiles" in page
        assert "stage latency breakdown" in page

    def test_no_serve_metrics_no_section(self):
        page = build_dashboard(report={"metrics": {}})
        assert "Serving" not in page
