"""Multi-worker chunk execution — Section 4.1's parallel loop, for real.

The chunk plan decides *what* runs where; this module actually runs it,
on cores that share one address space (the paper's setting).  The one
parameter is the worker count: one worker runs the chunks serially in
the calling thread; N > 1 workers are N Python threads that write their
chunk rows directly into the shared output arrays — every chunk owns a
disjoint row slice (output parallelism), so no locking is needed.

Every worker count produces bitwise-identical outputs: each vertex's row
is computed by the same specialized closure regardless of which worker
runs it, and the deterministic chunk assignment makes the per-worker stats
(including per-worker chunk counts) identical run-to-run.  Merging
happens in worker-id order so the accumulated floating-point counters
are reproducible too.  Wall-clock time is recorded in
``KernelStats.extra["wall_time_s"]`` — it is a measurement, not a work
counter, and is the one entry that legitimately varies between runs.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..kernels.base import KernelStats
from ..obs import get_metrics, get_tracer
from .plan import Chunk, ChunkPlan, assign_chunks
from .workload import ChunkWorkload

logger = logging.getLogger(__name__)


@dataclass
class WorkerReport:
    """What one worker did: its chunks, vertices, counters, and time."""

    worker_id: int
    num_chunks: int
    num_vertices: int
    elapsed_s: float
    stats: KernelStats = field(default_factory=KernelStats)


@dataclass
class ExecutionReport:
    """One executor invocation: per-worker reports plus wall time."""

    workers: int
    wall_time_s: float
    worker_reports: List[WorkerReport] = field(default_factory=list)

    @property
    def chunks_per_worker(self) -> List[int]:
        return [report.num_chunks for report in self.worker_reports]

    @property
    def imbalance(self) -> float:
        """max / mean executed gather work — 1.0 is perfect balance."""
        work = np.array(
            [report.stats.gathers for report in self.worker_reports], dtype=np.float64
        )
        if len(work) == 0 or work.mean() == 0:
            return 1.0
        return float(work.max() / work.mean())


class ChunkExecutor:
    """Runs a chunk plan on ``workers`` in-process workers.

    Args:
        workers: one runs serially; N > 1 runs N threads.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self.last_report: Optional[ExecutionReport] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChunkExecutor(workers={self.workers})"

    # ------------------------------------------------------------------
    def run(
        self, workload: ChunkWorkload, plan: ChunkPlan
    ) -> Tuple[Dict[str, np.ndarray], KernelStats, ExecutionReport]:
        """Execute every chunk; return (outputs, merged stats, report)."""
        outputs = {
            name: np.empty(shape, dtype=dtype)
            for name, (shape, dtype) in workload.output_specs().items()
        }
        assignment = assign_chunks(plan, self.workers)
        # Live-plane gauges: a scrape mid-run sees how much of the plan
        # is still queued and how many workers are busy.  Zero-cost when
        # the registry is the null singleton (queue_gauge stays None and
        # workers never touch it).
        metrics = get_metrics()
        queue_gauge = None
        if metrics.enabled:
            queue_gauge = metrics.gauge("executor.queue_depth")
            queue_gauge.set(float(plan.num_chunks))
            metrics.set_gauge(
                "executor.inflight",
                float(sum(1 for chunks in assignment if chunks)),
            )
        wall_start = time.perf_counter()
        try:
            if self.workers > 1:
                reports = self._run_threads(workload, assignment, outputs, queue_gauge)
            else:
                reports = self._run_serial(workload, assignment, outputs, queue_gauge)
        finally:
            if metrics.enabled:
                metrics.set_gauge("executor.queue_depth", 0.0)
                metrics.set_gauge("executor.inflight", 0.0)
        wall_time = time.perf_counter() - wall_start

        reports.sort(key=lambda report: report.worker_id)
        merged = KernelStats()
        for report in reports:
            merged.merge(report.stats)
        merged.extra["workers"] = float(self.workers)
        merged.extra["wall_time_s"] = wall_time
        for report in reports:
            merged.extra[f"worker{report.worker_id}_chunks"] = float(report.num_chunks)
        execution = ExecutionReport(
            workers=self.workers,
            wall_time_s=wall_time,
            worker_reports=reports,
        )
        self.last_report = execution
        self._emit_telemetry(plan, execution)
        return outputs, merged, execution

    def _emit_telemetry(self, plan: ChunkPlan, execution: ExecutionReport) -> None:
        """One ``worker`` span per worker, plus registry counters."""
        tracer = get_tracer()
        if tracer.enabled:
            for report in execution.worker_reports:
                tracer.record(
                    "worker",
                    duration_s=report.elapsed_s,
                    attrs={
                        "worker_id": report.worker_id,
                        "chunks": report.num_chunks,
                        "vertices": report.num_vertices,
                    },
                    counters=report.stats.as_dict(),
                )
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("executor.runs")
            metrics.inc("executor.chunks", plan.num_chunks)
            metrics.observe("executor.wall_time_s", execution.wall_time_s)
            metrics.observe("executor.imbalance", execution.imbalance)
            for report in execution.worker_reports:
                prefix = f"executor.worker{report.worker_id}"
                metrics.inc(f"{prefix}.chunks", report.num_chunks)
                metrics.inc(f"{prefix}.vertices", report.num_vertices)
                metrics.observe(f"{prefix}.elapsed_s", report.elapsed_s)
        # imbalance is O(workers) numpy work — don't compute it eagerly
        # just to discard it when DEBUG is off (this runs per kernel call).
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "x%d ran %d chunks in %.4fs (imbalance %.2f)",
                self.workers,
                plan.num_chunks,
                execution.wall_time_s,
                execution.imbalance,
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _consume(
        workload: ChunkWorkload,
        worker_id: int,
        chunks: List[Chunk],
        outputs: Dict[str, np.ndarray],
        queue_gauge=None,
    ) -> WorkerReport:
        """Run one worker's chunk list in-process, writing disjoint rows."""
        start = time.perf_counter()
        stats = KernelStats()
        vertices = 0
        for chunk in chunks:
            writes, chunk_stats = workload.run_chunk(chunk)
            if queue_gauge is not None:
                queue_gauge.add(-1.0)
            for name, (idx, rows) in writes.items():
                if chunk.contiguous:
                    # Ascending contiguous ids (every natural-order chunk):
                    # a slice write is a straight memcpy, vs the per-row
                    # indirection of a fancy-index scatter.
                    lo = int(idx[0])
                    outputs[name][lo : lo + len(idx)] = rows
                else:
                    outputs[name][idx] = rows
            stats.merge(chunk_stats)
            vertices += chunk.num_vertices
        return WorkerReport(
            worker_id=worker_id,
            num_chunks=len(chunks),
            num_vertices=vertices,
            elapsed_s=time.perf_counter() - start,
            stats=stats,
        )

    def _run_serial(
        self, workload, assignment, outputs, queue_gauge=None
    ) -> List[WorkerReport]:
        workload.prepare()
        return [
            self._consume(workload, worker_id, chunks, outputs, queue_gauge)
            for worker_id, chunks in enumerate(assignment)
        ]

    def _run_threads(
        self, workload, assignment, outputs, queue_gauge=None
    ) -> List[WorkerReport]:
        workload.prepare()  # workers share the read-only runtime state
        reports: List[Optional[WorkerReport]] = [None] * self.workers
        errors: List[BaseException] = []

        def body(worker_id: int, chunks: List[Chunk]) -> None:
            try:
                reports[worker_id] = self._consume(
                    workload, worker_id, chunks, outputs, queue_gauge
                )
            except BaseException as exc:  # surface worker failures
                errors.append(exc)

        threads = [
            threading.Thread(target=body, args=(worker_id, chunks), daemon=True)
            for worker_id, chunks in enumerate(assignment)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return [report for report in reports if report is not None]
