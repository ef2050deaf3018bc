"""Tests for the Perfetto / Chrome trace-event exporter."""

import json

import pytest

from repro.obs import Tracer
from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    export_perfetto,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry


def sample_records():
    return [
        {
            "kind": "span",
            "span_id": 1,
            "parent_id": None,
            "name": "epoch",
            "start_s": 0.0,
            "duration_s": 0.010,
            "attrs": {"index": 0},
            "counters": {},
        },
        {
            "kind": "span",
            "span_id": 2,
            "parent_id": 1,
            "name": "kernel.basic",
            "start_s": 0.001,
            "duration_s": 0.004,
            "attrs": {"vertices": 100, "features": 8},
            "counters": {"gathers": 500.0, "flops": 8000.0},
        },
        {
            "kind": "span",
            "span_id": 3,
            "parent_id": 2,
            "name": "worker",
            "start_s": 0.001,
            "duration_s": 0.002,
            "attrs": {"worker_id": 0},
            "counters": {"gathers": 250.0},
        },
        {
            "kind": "span",
            "span_id": 4,
            "parent_id": 2,
            "name": "worker",
            "start_s": 0.001,
            "duration_s": 0.003,
            "attrs": {"worker_id": 1},
            "counters": {"gathers": 250.0},
        },
    ]


def x_events(events):
    return [e for e in events if e.get("ph") == "X"]


class TestChromeTraceEvents:
    def test_one_x_event_per_span(self):
        events = chrome_trace_events(sample_records())
        assert len(x_events(events)) == 4

    def test_timestamps_in_microseconds(self):
        events = x_events(chrome_trace_events(sample_records()))
        kernel = next(e for e in events if e["name"] == "kernel.basic")
        assert kernel["ts"] == pytest.approx(1000.0)
        assert kernel["dur"] == pytest.approx(4000.0)
        assert kernel["cat"] == "kernel"

    def test_worker_spans_get_own_lanes(self):
        events = x_events(chrome_trace_events(sample_records()))
        tids = {e["args"].get("worker_id"): e["tid"] for e in events}
        assert tids[0] == 1
        assert tids[1] == 2
        kernel = next(e for e in events if e["name"] == "kernel.basic")
        assert kernel["tid"] == 0

    def test_counter_tracks_are_cumulative(self):
        events = chrome_trace_events(sample_records())
        gathers = [
            e["args"]["gathers"]
            for e in events
            if e.get("ph") == "C" and e["name"] == "counters/gathers"
        ]
        # worker(250) then worker(250) then kernel(500), ordered by end ts.
        assert gathers == [250.0, 500.0, 1000.0]

    def test_thread_metadata_names_every_lane(self):
        events = chrome_trace_events(sample_records())
        names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert names == {0: "main", 1: "worker-0", 2: "worker-1"}

    def test_registry_counters_sampled_at_trace_end(self):
        snapshot = {
            "kernel.basic.gathers": {"type": "counter", "value": 1000.0},
            "some.gauge": {"type": "gauge", "value": 3.0},
        }
        events = chrome_trace_events(sample_records(), snapshot)
        metric = [
            e for e in events if e["name"] == "metrics/kernel.basic.gathers"
        ]
        assert len(metric) == 1
        assert metric[0]["args"]["value"] == 1000.0
        assert not any(e["name"] == "metrics/some.gauge" for e in events)


class TestWriteAndExport:
    def test_written_file_is_valid_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), sample_records(), meta={"cmd": "t"})
        doc = json.loads(path.read_text())
        assert count == 4
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == 4
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"cmd": "t"}

    def test_empty_trace_still_valid(self, tmp_path):
        path = tmp_path / "empty.json"
        assert write_chrome_trace(str(path), []) == 0
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)

    def test_export_live_tracer(self, tmp_path):
        tracer = Tracer()
        metrics = MetricsRegistry()
        metrics.inc("kernel.basic.gathers", 7.0)
        with tracer.span("epoch", index=0):
            with tracer.span("kernel.basic", vertices=10, features=4) as span:
                span.add_counters({"gathers": 40.0})
            tracer.record(
                "worker", duration_s=0.001, attrs={"worker_id": 0}
            )
        path = tmp_path / "live.json"
        count = export_perfetto(str(path), tracer, metrics, meta={"m": 1})
        assert count == len(tracer.spans()) == 3
        doc = json.loads(path.read_text())
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == count

    def test_chrome_trace_document_shape(self):
        doc = chrome_trace(sample_records())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
