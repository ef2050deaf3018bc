"""Unit tests for the multi-worker chunk executor."""

import dataclasses
import threading

import numpy as np
import pytest

from repro.graphs import power_law_graph, synthetic_features
from repro.parallel import (
    BasicAggregationWorkload,
    ChunkExecutor,
    build_chunk_plan,
)


@pytest.fixture(scope="module")
def skewed_graph():
    return power_law_graph(240, avg_degree=8.0, seed=11)


@pytest.fixture(scope="module")
def workload_inputs(skewed_graph):
    h = synthetic_features(skewed_graph, 12, seed=3, sparsity=0.3)
    order = np.arange(skewed_graph.num_vertices, dtype=np.int64)
    return h, order


def _run(skewed_graph, workload_inputs, workers, task_size=32):
    h, order = workload_inputs
    workload = BasicAggregationWorkload(
        skewed_graph, h, "gcn", order, prefetch_distance=4
    )
    plan = build_chunk_plan(skewed_graph, task_size, order)
    executor = ChunkExecutor(workers)
    return executor.run(workload, plan)


class TestConstruction:
    def test_rejects_unknown_backend(self):
        """Every backend is unknown now: the argument itself is gone."""
        with pytest.raises(TypeError):
            ChunkExecutor("thread", 2)
        with pytest.raises(TypeError):
            ChunkExecutor("process")
        with pytest.raises(TypeError):
            ChunkExecutor(backend="serial")

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ChunkExecutor(0)
        with pytest.raises(ValueError):
            ChunkExecutor(workers=0)

    def test_serial_is_single_worker(self, skewed_graph, workload_inputs):
        """One worker runs every chunk in the calling thread; several
        workers run them on their own threads."""
        h, order = workload_inputs
        plan = build_chunk_plan(skewed_graph, 32, order)
        for workers in (1, 2):
            idents = set()

            class Recording(BasicAggregationWorkload):
                def run_chunk(self, chunk):
                    idents.add(threading.get_ident())
                    return super().run_chunk(chunk)

            workload = Recording(skewed_graph, h, "gcn", order, prefetch_distance=4)
            ChunkExecutor(workers).run(workload, plan)
            on_caller = idents == {threading.get_ident()}
            assert on_caller == (workers == 1)


class TestBackendKnobIsGone:
    """One in-process runtime: the backend attribute and registry are
    deleted, not defaulted (the argument: ``test_rejects_unknown_backend``)."""

    def test_no_backend_attribute_or_registry(self, skewed_graph, workload_inputs):
        import repro.parallel as parallel

        _, _, report = _run(skewed_graph, workload_inputs, 2)
        assert not hasattr(ChunkExecutor(2), "backend")
        assert not hasattr(report, "backend")
        assert not hasattr(parallel, "BACKENDS")


#: One worker runs in the calling thread; several run as threads.
@pytest.mark.parametrize("workers", [1, 3], ids=["serial-1", "thread-3"])
class TestRun:
    def test_outputs_match_serial(self, skewed_graph, workload_inputs, workers):
        baseline, _, _ = _run(skewed_graph, workload_inputs, 1)
        outputs, _, _ = _run(skewed_graph, workload_inputs, workers)
        assert np.array_equal(outputs["out"], baseline["out"])

    def test_worker_reports_cover_all_chunks(
        self, skewed_graph, workload_inputs, workers
    ):
        _, stats, report = _run(skewed_graph, workload_inputs, workers)
        assert report.workers == workers
        assert len(report.worker_reports) == workers
        assert sum(report.chunks_per_worker) == stats.tasks
        assert sum(r.num_vertices for r in report.worker_reports) == (
            skewed_graph.num_vertices
        )

    def test_stats_record_per_worker_chunks(
        self, skewed_graph, workload_inputs, workers
    ):
        _, stats, report = _run(skewed_graph, workload_inputs, workers)
        assert stats.extra["workers"] == workers
        assert stats.extra["wall_time_s"] >= 0.0
        for worker_id, chunks in enumerate(report.chunks_per_worker):
            assert stats.extra[f"worker{worker_id}_chunks"] == chunks

    def test_merged_counters_are_schedule_invariant(
        self, skewed_graph, workload_inputs, workers
    ):
        _, serial_stats, _ = _run(skewed_graph, workload_inputs, 1)
        _, stats, _ = _run(skewed_graph, workload_inputs, workers)
        assert stats.gathers == serial_stats.gathers
        assert stats.prefetches == serial_stats.prefetches
        assert stats.tasks == serial_stats.tasks


class TestLoadBalance:
    def test_workers_share_the_gather_work(self, skewed_graph, workload_inputs):
        _, _, report = _run(skewed_graph, workload_inputs, 4, task_size=8)
        assert report.imbalance < 1.7  # dynamic scheduling bounds the skew
        assert all(chunks > 0 for chunks in report.chunks_per_worker)

    def test_more_workers_than_chunks(self, skewed_graph, workload_inputs):
        n = skewed_graph.num_vertices
        _, stats, report = _run(skewed_graph, workload_inputs, 4, task_size=n)
        assert stats.tasks == 1
        assert sorted(report.chunks_per_worker, reverse=True) == [1, 0, 0, 0]

    def test_worker_failure_propagates(self, skewed_graph, workload_inputs):
        h, order = workload_inputs
        bad = synthetic_features(skewed_graph, 9, seed=0)  # wrong feature width
        workload = BasicAggregationWorkload(skewed_graph, h, "gcn", order)
        workload.prepare()
        workload.h = bad  # closure is specialized for 12 features
        plan = build_chunk_plan(skewed_graph, 32, order)
        with pytest.raises(ValueError):
            ChunkExecutor(2).run(workload, plan)


class TestEmptyAssignment:
    def test_empty_plan_gives_idle_reports(self, skewed_graph, workload_inputs):
        h, order = workload_inputs
        workload = BasicAggregationWorkload(
            skewed_graph, h, "gcn", order, prefetch_distance=4
        )
        plan = build_chunk_plan(skewed_graph, 32, order)
        plan = dataclasses.replace(plan, chunks=())  # every worker idle
        _, stats, report = ChunkExecutor(3).run(workload, plan)
        assert stats.tasks == 0
        assert report.chunks_per_worker == [0, 0, 0]
        for worker_report in report.worker_reports:
            assert worker_report.num_vertices == 0
            assert worker_report.stats.gathers == 0


class TestLiveGauges:
    def test_queue_drains_to_zero(self, skewed_graph, workload_inputs):
        from repro import obs

        _, metrics = obs.enable()
        try:
            _run(skewed_graph, workload_inputs, 2)
            snap = metrics.snapshot()
        finally:
            obs.disable()
        # Workers decrement executor.queue_depth per consumed chunk; after
        # the run both live gauges must read zero (idle).
        assert snap["executor.queue_depth"]["value"] == 0.0
        assert snap["executor.inflight"]["value"] == 0.0
        assert snap["executor.queue_depth"]["updated_monotonic"] is not None

    def test_gauges_reset_even_when_a_worker_fails(
        self, skewed_graph, workload_inputs
    ):
        from repro import obs

        h, order = workload_inputs
        bad = synthetic_features(skewed_graph, 9, seed=0)
        workload = BasicAggregationWorkload(skewed_graph, h, "gcn", order)
        workload.prepare()
        workload.h = bad
        plan = build_chunk_plan(skewed_graph, 32, order)
        _, metrics = obs.enable()
        try:
            with pytest.raises(ValueError):
                ChunkExecutor(2).run(workload, plan)
            snap = metrics.snapshot()
        finally:
            obs.disable()
        assert snap["executor.queue_depth"]["value"] == 0.0
        assert snap["executor.inflight"]["value"] == 0.0

    def test_disabled_registry_records_nothing(
        self, skewed_graph, workload_inputs
    ):
        from repro.obs import get_metrics

        _run(skewed_graph, workload_inputs, 2)
        assert get_metrics().snapshot() == {}
