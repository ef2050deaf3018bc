"""Unit tests for the hierarchical span tracer."""

import json
import threading

import pytest

from repro.obs import (
    NULL_TRACER, NullTracer, Tracer, manifest, read_trace,
    render_span_tree, span_tree,
)


class TestSpanNesting:
    def test_parent_child_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.span.parent_id == outer.span.span_id
        spans = tracer.spans()
        assert [s.name for s in spans] == ["inner", "outer"]  # close order

    def test_root_span_has_no_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            pass
        assert tracer.spans("root")[0].parent_id is None

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            for name in ("a", "b"):
                with tracer.span(name):
                    pass
        a, b = tracer.spans("a")[0], tracer.spans("b")[0]
        assert a.parent_id == b.parent_id == parent.span.span_id

    def test_duration_positive(self):
        tracer = Tracer()
        with tracer.span("timed"):
            pass
        assert tracer.spans("timed")[0].duration_s >= 0.0

    def test_attrs_and_counters(self):
        tracer = Tracer()
        with tracer.span("k", backend="thread") as span:
            span.set_attr("vertices", 10)
            span.add_counters({"gathers": 5})
            span.add_counters({"gathers": 2, "flops": 1.0})
        done = tracer.spans("k")[0]
        assert done.attrs == {"backend": "thread", "vertices": 10}
        assert done.counters == {"gathers": 7.0, "flops": 1.0}

    def test_record_attaches_to_current(self):
        tracer = Tracer()
        with tracer.span("kernel") as kspan:
            tracer.record("worker", duration_s=0.5, attrs={"lane": 3})
        worker = tracer.spans("worker")[0]
        assert (worker.parent_id, worker.duration_s, worker.attrs, worker.counters) == (
            kspan.span.span_id, 0.5, {"lane": 3}, {})

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert len(tracer.spans("boom")) == 1
        assert tracer.current() is None

    def test_thread_local_stacks(self):
        tracer = Tracer()
        seen = {}

        def body():
            with tracer.span("thread-root") as span:
                seen["parent"] = span.span.parent_id

        with tracer.span("main-root"):
            t = threading.Thread(target=body)
            t.start()
            t.join()
        # The other thread's span is a root, not a child of main-root.
        assert seen["parent"] is None


class TestFilteringAndAggregation:
    def test_prefix_filter(self):
        tracer = Tracer()
        for name in ("kernel.basic", "kernel.fusion", "epoch"):
            with tracer.span(name):
                pass
        assert len(tracer.spans("kernel.*")) == 2
        assert len(tracer.spans("kernel.basic")) == 1

    def test_aggregate_counters(self):
        tracer = Tracer()
        with tracer.span("a") as sa:
            sa.add_counters({"gathers": 1, "flops": 2})
        with tracer.span("b") as sb:
            sb.add_counters({"gathers": 10})
        assert tracer.aggregate_counters() == {"gathers": 11.0, "flops": 2.0}
        assert tracer.aggregate_counters("b") == {"gathers": 10.0}


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", kind="demo") as outer:
            outer.add_counters({"n": 1})
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.jsonl"
        run = manifest("profile", [], {"seed": 0})
        assert tracer.export_jsonl(str(path), run) == 2
        header, records = read_trace(str(path))
        assert (header["manifest"], header["spans"]) == (run, 2)
        assert [r["name"] for r in records] == ["outer", "inner"]  # id order
        assert records[0]["counters"] == {"n": 1.0}

    def test_read_trace_rejects_non_trace(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "other"}) + "\n")
        with pytest.raises(ValueError):
            read_trace(str(path))

    def test_span_tree_nesting(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                tracer.record("grandchild", duration_s=0.0)
        path = tmp_path / "t.jsonl"
        tracer.export_jsonl(str(path))
        _, records = read_trace(str(path))
        [root] = span_tree(records)
        [child] = root["children"]
        assert (root["name"], child["name"], child["children"][0]["name"]) == (
            "root", "child", "grandchild")

    def test_render_span_tree(self):
        tracer = Tracer()
        with tracer.span("root") as span:
            span.add_counters({"gathers": 5, "zero": 0})
        text = render_span_tree([s.to_record() for s in tracer.spans()])
        assert "root" in text and "gathers=5" in text
        assert "zero" not in text  # zero counters are elided


class TestNullTracer:
    def test_disabled_flag(self):
        assert (NullTracer.enabled, Tracer.enabled) == (False, True)

    def test_span_is_shared_noop(self):
        tracer = NullTracer()
        a = tracer.span("x", attr=1)
        b = tracer.span("y")
        assert a is b  # one shared object: no allocation per call
        with a as span:
            span.set_attr("k", "v")
            span.add_counters({"n": 1})

    def test_record_noop(self):
        NULL_TRACER.record("w", duration_s=1.0, attrs={"n": 1})
