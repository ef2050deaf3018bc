"""Unit tests for the hierarchical span tracer."""

import json
import threading

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    manifest,
    read_trace,
    render_span_tree,
    span_tree,
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
            with tracer.span("a"):
                pass
            with tracer.span("b"):
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
        assert worker.parent_id == kspan.span.span_id
        assert worker.duration_s == 0.5
        assert worker.attrs == {"lane": 3}
        assert worker.counters == {}

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
        with tracer.span("kernel.basic"):
            pass
        with tracer.span("kernel.fusion"):
            pass
        with tracer.span("epoch"):
            pass
        assert len(tracer.spans("kernel.*")) == 2
        assert len(tracer.spans("kernel.basic")) == 1

    def test_aggregate_counters(self):
        tracer = Tracer()
        with tracer.span("a") as sa:
            sa.add_counters({"gathers": 1, "flops": 2})
        with tracer.span("b") as sb:
            sb.add_counters({"gathers": 10})
        totals = tracer.aggregate_counters()
        assert totals == {"gathers": 11.0, "flops": 2.0}
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
        count = tracer.export_jsonl(str(path), run)
        assert count == 2
        header, records = read_trace(str(path))
        assert header["manifest"] == run
        assert header["spans"] == 2
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
        roots = span_tree(records)
        assert len(roots) == 1
        assert roots[0]["name"] == "root"
        assert roots[0]["children"][0]["name"] == "child"
        assert roots[0]["children"][0]["children"][0]["name"] == "grandchild"

    def test_render_span_tree(self):
        tracer = Tracer()
        with tracer.span("root") as span:
            span.add_counters({"gathers": 5, "zero": 0})
        text = render_span_tree([s.to_record() for s in tracer.spans()])
        assert "root" in text
        assert "gathers=5" in text
        assert "zero" not in text  # zero counters are elided


class TestNullTracer:
    def test_disabled_flag(self):
        assert NullTracer.enabled is False
        assert Tracer.enabled is True

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
