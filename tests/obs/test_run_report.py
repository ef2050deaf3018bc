"""Unit tests for run-report building and the telemetry singletons."""

import json

import repro
from repro import obs
from repro.obs import (
    MetricsRegistry,
    Tracer,
    build_run_report,
    environment_info,
    write_json,
)


class TestEnvironmentInfo:
    def test_required_keys(self):
        env = environment_info()
        for key in (
            "repro_version", "git_sha", "python", "numpy",
            "platform", "cpu_count",
        ):
            assert key in env
        assert env["repro_version"] == repro.__version__

    def test_json_serializable(self):
        json.dumps(environment_info())


class TestBuildRunReport:
    def test_joins_spans_metrics_meta(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        with tracer.span("epoch"):
            with tracer.span("layer") as span:
                span.add_counters({"gathers": 4})
        metrics.inc("kernel.basic.gathers", 4)
        report = build_run_report(
            tracer, metrics, meta={"command": "test", "workers": 2}
        )
        assert report["schema"] == 1
        assert report["meta"]["workers"] == 2
        assert len(report["spans"]) == 2
        assert report["span_tree"][0]["name"] == "epoch"
        assert report["span_tree"][0]["children"][0]["name"] == "layer"
        assert report["metrics"]["kernel.basic.gathers"]["value"] == 4.0
        assert report["counter_totals"] == {"gathers": 4.0}

    def test_empty_report(self):
        report = build_run_report()
        assert report["spans"] == []
        assert report["metrics"] == {}
        json.dumps(report)

    def test_write_json(self, tmp_path):
        path = tmp_path / "run.json"
        write_json(str(path), build_run_report(meta={"x": 1}))
        loaded = json.loads(path.read_text())
        assert loaded["meta"] == {"x": 1}

    def test_embeds_epoch_events_from_event_log(self):
        from repro.obs.events import EpochEvent, EventLog

        log = EventLog(None)
        log.emit(
            EpochEvent(
                epoch=0, loss=1.0, train_accuracy=0.5, wall_time_s=0.01,
            )
        )
        report = build_run_report(events=log)
        assert len(report["epoch_events"]) == 1
        assert report["epoch_events"][0]["epoch"] == 0
        json.dumps(report)

    def test_embeds_events_from_plain_list(self):
        records = [{"kind": "epoch", "epoch": 0}]
        report = build_run_report(events=records)
        assert report["epoch_events"] == records

    def test_embeds_sparsity_profile(self):
        from repro.tensors import SparsityProfile

        profile = SparsityProfile()
        profile.add(1, 0.62)
        report = build_run_report(sparsity=profile)
        assert report["sparsity"]["last"] == {"1": 0.62}
        json.dumps(report)

    def test_no_extras_no_keys(self):
        report = build_run_report()
        assert "epoch_events" not in report
        assert "sparsity" not in report


class TestGlobalSingletons:
    def test_disabled_by_default(self):
        assert obs.get_tracer().enabled is False
        assert obs.get_metrics().enabled is False

    def test_enable_disable_round_trip(self):
        tracer, metrics = obs.enable()
        try:
            assert obs.get_tracer() is tracer
            assert obs.get_metrics() is metrics
            assert tracer.enabled and metrics.enabled
        finally:
            obs.disable()
        assert obs.get_tracer().enabled is False
        assert obs.get_metrics().enabled is False

