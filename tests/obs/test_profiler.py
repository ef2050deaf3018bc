"""Unit tests for the sampling profiler."""

import sys
import threading
import time

import pytest

from repro.obs import Tracer
from repro.obs.profiler import (
    DEFAULT_SAMPLING_HZ,
    NULL_PROFILER,
    ProfileData,
    SamplingProfiler,
    fold_stack,
    frame_label,
    phase_of_stack,
    render_profile,
    span_phase_seconds,
    write_collapsed,
)

class TestPhaseAttribution:
    def test_innermost_phase_wins(self):
        # A backward kernel nested inside an epoch/layer still reads as
        # backward; the enclosing spans carry no phase of their own.
        stack = ["epoch", "layer", "kernel.backward.basic"]
        assert phase_of_stack(stack) == "backward"

    def test_kernel_names_map_to_paper_phases(self):
        assert phase_of_stack(["kernel.basic"]) == "aggregate"
        assert phase_of_stack(["kernel.fusion"]) == "update"
        assert phase_of_stack(["kernel.compression"]) == "compress"
        assert phase_of_stack(["kernel.backward.anything"]) == "backward"

    def test_no_phase_span_is_other(self):
        assert phase_of_stack(["epoch", "layer"]) == "other"
        assert phase_of_stack([]) == "other"

    def test_inner_phase_shadows_outer(self):
        # compress inside an aggregate kernel: the innermost wins.
        stack = ["kernel.basic", "kernel.compression"]
        assert phase_of_stack(stack) == "compress"


def _leaf_frame():
    def inner():
        return sys._getframe()

    def outer():
        return inner()

    return outer()


class TestFolding:
    def test_fold_is_deterministic(self):
        # The same call site folded twice yields identical tuples — the
        # property the collapsed-stack table keys depend on.
        assert fold_stack(_leaf_frame()) == fold_stack(_leaf_frame())

    def test_fold_orders_root_to_leaf(self):
        frames = fold_stack(_leaf_frame())
        assert frames[-1].endswith(":inner")
        assert frames[-2].endswith(":outer")
        assert frames.index(frames[-2]) < frames.index(frames[-1])

    def test_frame_label_is_module_and_function(self):
        label = frame_label(_leaf_frame())
        module, _, func = label.partition(":")
        assert func == "inner"
        assert "test_profiler" in module

    def test_max_depth_truncates(self):
        frames = fold_stack(_leaf_frame(), max_depth=2)
        assert len(frames) == 2
        # Truncation drops the *root* side: the leaf is always kept.
        assert frames[-1].endswith(":inner")


class TestProfileData:
    def test_record_and_phase_seconds(self):
        data = ProfileData(hz=100.0)
        for _ in range(5):
            data.record("aggregate", ("main:f",), "MainThread")
        data.record("other", ("main:g",), "MainThread")
        assert data.thread_samples == 6
        assert data.phase_seconds["aggregate"] == pytest.approx(0.05)
        assert data.seconds(10.0) == pytest.approx(0.1)

    def test_top_self_ranks_leaf_frames(self):
        data = ProfileData(hz=100.0)
        for _ in range(3):
            data.record("other", ("a:root", "b:hot"), "t")
        data.record("other", ("a:root", "c:cold"), "t")
        data.record("aggregate", ("d:entry", "b:hot"), "t")
        top = data.top_self(2)
        assert top[0][0] == "b:hot"
        assert top[0][1] == 4.0  # self samples sum across phases
        assert top[1][0] == "c:cold"

    def test_overflow_bucket_bounds_unique_stacks(self, monkeypatch):
        monkeypatch.setattr("repro.obs.profiler.MAX_UNIQUE_STACKS", 2)
        data = ProfileData(hz=100.0)
        data.record("other", ("a:a",), "t")
        data.record("other", ("b:b",), "t")
        data.record("other", ("c:c",), "t")  # third unique stack: overflow
        assert len(data.stacks) == 3
        assert data.stacks[("other", ("<overflow>",))] == 1.0
        assert data.thread_samples == 3  # mass is never dropped

    def test_collapsed_lines_format_and_determinism(self):
        data = ProfileData(hz=100.0)
        data.record("aggregate", ("main:run", "kern:gather"), "t")
        data.record("aggregate", ("main:run", "kern:gather"), "t")
        data.record("other", ("main:run",), "t")
        lines = data.collapsed_lines()
        assert lines == [
            "aggregate;main:run;kern:gather 2",
            "other;main:run 1",
        ]
        assert lines == data.collapsed_lines()  # stable across calls

    def test_write_collapsed_empty_profile(self, tmp_path):
        path = tmp_path / "empty.folded"
        assert write_collapsed(str(path), ProfileData()) == 0
        assert path.read_text() == ""


class TestSamplingProfiler:
    def test_rejects_nonpositive_hz(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0.0)

    def test_sample_lands_in_span_phase(self):
        tracer = Tracer()
        profiler = SamplingProfiler(tracer=tracer, hz=200.0)
        done = threading.Event()

        def work():
            with tracer.span("kernel.basic", vertices=1):
                while not done.is_set():
                    sum(i * i for i in range(500))

        thread = threading.Thread(target=work, name="busy-worker")
        thread.start()
        try:
            time.sleep(0.01)  # let the span open
            for _ in range(5):
                profiler.sample_once()
        finally:
            done.set()
            thread.join()
        data = profiler.stop()
        assert data.samples == 5
        assert data.phase_samples.get("aggregate", 0.0) >= 1.0
        assert any("busy-worker" in label for label in data.threads)

    def test_threads_exiting_mid_profile_are_safe(self):
        # Regression guard for the sys._current_frames() race: threads
        # that die between the snapshot and the fold must not break the
        # sampler or lose the tick.
        profiler = SamplingProfiler(hz=1000.0).start()
        try:
            for _ in range(30):
                thread = threading.Thread(target=lambda: time.sleep(0.001))
                thread.start()
                thread.join()
        finally:
            data = profiler.stop()
        assert data.samples >= 1
        # Everything sampled without a tracer lands in "other".
        assert set(data.phase_samples) <= {"other"}

    def test_start_stop_empty_capture_exports_cleanly(self, tmp_path):
        profiler = SamplingProfiler(hz=DEFAULT_SAMPLING_HZ)
        data = profiler.stop()  # never started: zero ticks
        assert data.samples == 0
        rendered = render_profile(data)
        assert "0 ticks" in rendered
        assert write_collapsed(str(tmp_path / "f.folded"), data) == 0
        doc = data.to_dict()
        assert doc["phases"] == {}
        assert doc["duration_estimate_s"] == 0.0

    def test_never_samples_its_own_thread(self):
        profiler = SamplingProfiler(hz=500.0).start()
        time.sleep(0.03)
        data = profiler.stop()
        assert not any(
            "repro-sampling-profiler" in label for label in data.threads
        )

    def test_registry_counts_ticks(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        profiler = SamplingProfiler(hz=100.0, registry=registry)
        profiler.sample_once()
        profiler.sample_once()
        assert registry.snapshot()["profiler.samples"]["value"] == 2.0

    def test_null_profiler_is_inert(self):
        assert not NULL_PROFILER.enabled
        assert NULL_PROFILER.start() is NULL_PROFILER
        assert NULL_PROFILER.stop() is None
        assert NULL_PROFILER.sample_once() == 0
        names = [t.name for t in threading.enumerate()]
        assert "repro-sampling-profiler" not in names


class TestSpanPhaseSeconds:
    def test_only_kernel_spans_count(self):
        records = [
            {"name": "epoch", "duration_s": 1.0},
            {"name": "backward", "duration_s": 0.5},  # trainer span: skip
            {"name": "kernel.basic", "duration_s": 0.2},
            {"name": "kernel.basic", "duration_s": 0.1},
            {"name": "kernel.backward.basic", "duration_s": 0.3},
            {"name": "worker", "duration_s": 0.05},
        ]
        totals = span_phase_seconds(records)
        assert totals == {
            "aggregate": pytest.approx(0.3),
            "backward": pytest.approx(0.3),
        }

    def test_render_profile_includes_span_wall_column(self):
        data = ProfileData(hz=100.0)
        for _ in range(8):
            data.record("aggregate", ("m:f",), "t")
        text = render_profile(data, span_seconds={"aggregate": 0.081})
        assert "span wall" in text
        assert "0.081s" in text

