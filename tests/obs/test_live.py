"""Unit tests for the live telemetry plane (endpoint + run monitor)."""

import http.client
import io
import json
import socket
import urllib.request

import pytest
from conftest import make_event

from repro import cli, obs
from repro.obs import MetricsRegistry, manifest
from repro.obs.events import EventLog
from repro.obs.live import (
    LiveRunMonitor, MetricsServer, delta_snapshot, prometheus_name,
    render_prometheus, scrape_snapshot, sparkline,
)
from repro.obs.rules import RuleEngine


def registry(counters=(), gauges=(), observed=()):
    """A registry holding ``(name, value)`` counters, gauges and
    observations."""
    reg = MetricsRegistry()
    for name, value in counters:
        reg.inc(name, value)
    for name, value in gauges:
        reg.set_gauge(name, value)
    for name, value in observed:
        reg.observe(name, value)
    return reg


def make_registry():
    return registry([("kernel.basic.gathers", 120)], [("proc.rss_bytes", 1e6)],
                    [("executor.wall_time_s", 0.5), ("executor.wall_time_s", 1.5)])


class TestPrometheusRendering:
    def test_name_mapping(self):
        assert prometheus_name("kernel.basic.gathers") == "repro_kernel_basic_gathers"
        assert prometheus_name("weird-name!") == "repro_weird_name_"

    def test_families(self):
        text = render_prometheus(make_registry().snapshot())
        for line in ("# TYPE repro_kernel_basic_gathers_total counter",
                     "repro_kernel_basic_gathers_total 120.0",
                     "# TYPE repro_proc_rss_bytes gauge",
                     "# TYPE repro_executor_wall_time_s summary",
                     'repro_executor_wall_time_s{quantile="0.5"}',
                     "repro_executor_wall_time_s_sum 2.0",
                     "repro_executor_wall_time_s_count 2"):
            assert line in text

    def test_every_line_parses(self):
        # Minimal exposition-format check: each non-comment line is
        # "<name or name{labels}> <float>".
        text = render_prometheus(make_registry().snapshot())
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert name.startswith("repro_")
            float(value)  # must parse

    def test_nan_and_inf_rendering(self):
        text = render_prometheus(registry(gauges=[("g", float("nan"))]).snapshot())
        assert "repro_g NaN" in text


class TestDeltaSnapshot:
    def test_counter_rate_between_scrapes(self):
        before = {"c": {"type": "counter", "value": 10.0}}
        after = {"c": {"type": "counter", "value": 40.0}}
        doc = delta_snapshot(after, before, elapsed_s=2.0, now_monotonic=5.0)
        assert doc["metrics"]["c"]["rate_per_s"] == pytest.approx(15.0)

    def test_first_scrape_has_no_rate(self):
        doc = delta_snapshot({"c": {"type": "counter", "value": 10.0}}, None, None, 5.0)
        assert doc["metrics"]["c"]["rate_per_s"] is None

    def test_gauge_age(self):
        doc = delta_snapshot(
            {"g": {"type": "gauge", "value": 1.0, "updated_monotonic": 3.0}},
            None, None, now_monotonic=10.0)
        assert doc["metrics"]["g"]["age_s"] == pytest.approx(7.0)


class TestMetricsServer:
    def test_serves_metrics_and_snapshot(self):
        reg = make_registry()
        with MetricsServer(reg, port=0) as server:
            assert server.port
            with urllib.request.urlopen(f"{server.url}/metrics") as response:
                assert response.headers["Content-Type"].startswith("text/plain")
                text = response.read().decode()
            assert "repro_kernel_basic_gathers_total 120.0" in text
            reg.inc("kernel.basic.gathers", 30)
            first = scrape_snapshot(server.url)
            assert first["metrics"]["kernel.basic.gathers"]["value"] == 150.0
            reg.inc("kernel.basic.gathers", 10)
            second = scrape_snapshot(server.url)
            rate = second["metrics"]["kernel.basic.gathers"]["rate_per_s"]
            assert rate is not None and rate > 0
        assert server.port is None  # stopped

    def test_unknown_path_404(self):
        with MetricsServer(make_registry(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server.url}/nope")
            assert excinfo.value.code == 404

    def test_scrapes_share_one_keep_alive_connection(self):
        """Every route through the shared front end, on one connection."""
        reg = make_registry()
        with MetricsServer(reg, port=0) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            replies = {}
            for method, path in (
                ("GET", "/metrics"), ("GET", "/snapshot.json?x=1"),
                ("GET", "/nope"), ("POST", "/metrics"), ("GET", "/healthz"),
            ):
                conn.request(method, path)
                response = conn.getresponse()
                replies[method, path] = (response.status,
                                         response.headers["Content-Type"],
                                         response.read())
            conn.close()
            assert server.connections == 1
            # a one-shot scrape (``Connection: close``) is its own connection
            scrape_snapshot(server.url)
            assert server.connections == 2
        status, content_type, body = replies["GET", "/metrics"]
        assert status == 200 and content_type.startswith("text/plain; version=0.0.4")
        assert b"repro_kernel_basic_gathers_total 120.0" in body
        status, content_type, body = replies["GET", "/snapshot.json?x=1"]
        assert status == 200 and content_type == "application/json"
        assert "kernel.basic.gathers" in json.loads(body)["metrics"]
        assert replies["GET", "/nope"][::2] == (404, b"not found\n")
        assert replies["POST", "/metrics"][0] == 405
        assert replies["GET", "/healthz"][0] == 200

    def test_index_documents_endpoints(self):
        with MetricsServer(make_registry(), port=0) as server:
            with urllib.request.urlopen(f"{server.url}/") as response:
                body = response.read().decode()
            assert "/metrics" in body and "/snapshot.json" in body

    def test_start_is_idempotent(self):
        server = MetricsServer(make_registry(), port=0)
        try:
            assert server.start().port == server.start().port
        finally:
            server.stop()

    def test_null_server_never_binds(self, tmp_path, monkeypatch):
        """Without ``--serve-metrics`` a run that reads its registry (rules,
        ``--json``) still opens no socket: only that flag starts a server."""

        def refuse(*args, **kwargs):
            raise AssertionError("a socket was bound")

        monkeypatch.setattr(MetricsServer, "start", refuse)
        monkeypatch.setattr(socket.socket, "bind", refuse)
        args = cli.build_parser().parse_args(
            ["train", "products", "--json", str(tmp_path / "run.json")])
        with cli._telemetry(args, {}, rules=RuleEngine([])) as tracer:
            assert obs.get_metrics().enabled and tracer.enabled
        assert not obs.get_metrics().enabled


class TestSparkline:
    def test_shape(self):
        line = sparkline([1.0, 2.0, 3.0, 4.0])
        assert len(line) == 4 and line[0] == "▁" and line[-1] == "█"

    def test_flat_and_empty(self):
        assert sparkline([5.0, 5.0]) == "▁▁"
        assert sparkline([]) == ""
        assert sparkline([float("nan")]) == ""

    def test_width_truncates_to_tail(self):
        assert len(sparkline([float(i) for i in range(100)])) == 40


def frame_of(path, **kwargs):
    """What a monitor over ``path`` renders after one poll."""
    monitor = LiveRunMonitor(path, **kwargs)
    monitor.poll()
    return monitor.render()


class TestLiveRunMonitor:
    def write_events(self, tmp_path, epochs, **overrides):
        path = str(tmp_path / "run.jsonl")
        run = manifest("train", [], {"dataset": "t"})
        with EventLog(path, run) as log:
            for epoch in range(epochs):
                log.emit(make_event(epoch, loss=2.0 - epoch * 0.5, **overrides))
        return path

    def test_poll_tails_incrementally(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = EventLog(path)
        log.emit(make_event(0))
        monitor = LiveRunMonitor(path)
        assert [e["epoch"] for e in monitor.poll()] == [0]
        assert monitor.poll() == []
        log.emit(make_event(1))
        assert [e["epoch"] for e in monitor.poll()] == [1]
        log.close()

    def test_render_shows_trend_and_grads(self, tmp_path):
        frame = frame_of(self.write_events(tmp_path, 3))
        for text in ("epoch    2", "loss", "acc", "grad|w| L0:",
                     "== repro top == command=train dataset=t"):
            assert text in frame

    def test_render_without_events(self, tmp_path):
        frame = frame_of(str(tmp_path / "missing.jsonl"))
        assert "(no epoch events yet)" in frame

    def test_registry_metrics_in_view(self, tmp_path):
        reg = registry(gauges=[("proc.rss_bytes", 2e6), ("proc.cpu_percent", 50.0),
                               ("train.epoch", 7.0)])
        frame = frame_of(self.write_events(tmp_path, 1), registry=reg)
        for text in ("rss 2.0 MB", "cpu 50%", "phase epoch 7"):
            assert text in frame

    def test_stale_gauge_flagged(self, tmp_path, monkeypatch):
        reg = registry(gauges=[("proc.rss_bytes", 2e6)])
        monkeypatch.setattr("repro.obs.live.STALE_AFTER_S", -1.0)
        frame = frame_of(self.write_events(tmp_path, 1), registry=reg)
        assert "[STALE]" in frame

    def test_rules_evaluated_once_per_epoch(self, tmp_path):
        path = self.write_events(tmp_path, 3)
        rules = RuleEngine("loss_cap: train.loss < 0.1")
        monitor = LiveRunMonitor(path, rules=rules)
        monitor.poll()
        assert rules.evaluations == 3  # one per epoch, not per poll
        monitor.poll()  # no new events -> no new evaluations
        assert rules.evaluations == 3
        assert "FIRING" in monitor.render()

    def test_fatal_rule_is_an_ordinary_alert(self, tmp_path):
        # A watcher reports a fatal rule; only a training run stops.
        rules = RuleEngine("stop: train.loss < 0.1 fatal")
        monitor = LiveRunMonitor(self.write_events(tmp_path, 2), rules=rules)
        monitor.poll()
        assert [alert.fatal for alert in rules.alerts] == [True, True]
        assert "FIRING" in monitor.render()

    def test_rules_merge_event_over_metrics(self, tmp_path):
        reg = registry(gauges=[("proc.rss_bytes", 5e6)])
        rules = RuleEngine("rss: proc.rss_bytes < 1e6\nloss: train.loss < 0.1")
        monitor = LiveRunMonitor(self.write_events(tmp_path, 1), registry=reg,
                                 rules=rules)
        monitor.poll()
        assert set(rules.active) == {"rss", "loss"}

    def test_event_plane_replaces_scraped_train_gauges(self, tmp_path):
        # A scraped train.* gauge is the live run's latest epoch, not the
        # one being replayed: its rules skip instead of judging it.
        reg = registry(gauges=[("train.nonfinite", 1.0)],
                       observed=[("train.epoch_time_s", 5.0)])
        rules = RuleEngine("bad: train.nonfinite == 0\nslow: train.epoch_time_s max < 1")
        monitor = LiveRunMonitor(self.write_events(tmp_path, 2), registry=reg,
                                 rules=rules)
        monitor.poll()
        assert rules.active == ["slow"]

    def test_scrape_failure_is_tolerated(self, tmp_path):
        frame = frame_of(self.write_events(tmp_path, 1),
                         metrics_url="http://127.0.0.1:1")  # nothing listens there
        assert "epoch    0" in frame

    def test_follow_renders_frames(self, tmp_path):
        stream = io.StringIO()
        monitor = LiveRunMonitor(self.write_events(tmp_path, 2))
        assert monitor.follow(interval_s=0.0, refresh_limit=2, stream=stream) == 2
        assert "epoch    1" in stream.getvalue()

    def test_end_to_end_with_server(self, tmp_path):
        with MetricsServer(registry(gauges=[("proc.rss_bytes", 3e6)]),
                           port=0) as server:
            monitor = LiveRunMonitor(self.write_events(tmp_path, 2),
                                     metrics_url=server.url)
            monitor.poll()
            frame = monitor.render()
        assert "rss 3.0 MB" in frame
        assert json.loads(json.dumps(monitor.metrics))  # JSON-clean scrape


class TestServingView:
    def test_serve_section_rendered(self, tmp_path):
        reg = registry(
            [("serve.requests", 120), ("serve.cache.hits", 90),
             ("serve.cache.misses", 30)],
            [("serve.cache.size", 30.0), ("serve.queue_depth", 2.0)],
            [("serve.latency.request_s", value) for value in (0.001, 0.002, 0.004)]
            + [("serve.batch.occupancy", 4.0)])
        frame = frame_of(str(tmp_path / "none.jsonl"), registry=reg)
        for text in ("serve requests 120", "cache hit 75% (90/120)", "queue 2",
                     "lat   p50", "batch occupancy"):
            assert text in frame

    def test_no_serve_metrics_no_section(self, tmp_path):
        frame = frame_of(str(tmp_path / "none.jsonl"), registry=MetricsRegistry())
        assert "serve requests" not in frame

    def test_unknown_families_render_generically(self, tmp_path):
        reg = registry([("dma.descriptors", 42)], [("shard.halo_bytes", 1024.0)],
                       [("custom.stage_s", 0.5)])
        frame = frame_of(str(tmp_path / "none.jsonl"), registry=reg)
        for text in ("descriptors 42", "halo_bytes=1024", "stage_s p50=0.5"):
            assert text in frame

    def test_native_planes_not_duplicated_in_generic_view(self, tmp_path):
        reg = registry([("serve.requests", 1)],
                       [("proc.rss_bytes", 1e6), ("serve.queue_depth", 1.0)])
        frame = frame_of(str(tmp_path / "none.jsonl"), registry=reg)
        # proc/serve render in their own sections, once
        assert frame.count("rss") == 1
        assert frame.count("queue_depth") == 0
