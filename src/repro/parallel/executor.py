"""Multi-worker chunk execution — Section 4.1's parallel loop, for real.

The chunk plan decides *what* runs where; this module actually runs it.
Three backends share one contract:

* ``serial`` — one worker, in-process; the reference execution.
* ``thread`` — one Python thread per worker.  Workers write their chunk
  rows directly into the shared output arrays; because every chunk owns
  a disjoint row slice (output parallelism), no locking is needed.
* ``process`` — a process pool.  The workload is pickled once per
  worker (runtime closures are rebuilt there); chunk rows travel back
  to the parent, which performs the same disjoint writes.

All three produce bitwise-identical outputs: each vertex's row is
computed by the same specialized closure regardless of which worker runs
it, and the deterministic chunk assignment makes the per-worker stats
(including per-worker chunk counts) identical run-to-run.  Merging
happens in worker-id order so the accumulated floating-point counters
are reproducible too.  Wall-clock time is recorded in
``KernelStats.extra["wall_time_s"]`` — it is a measurement, not a work
counter, and is the one entry that legitimately varies between runs.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..kernels.base import KernelStats
from ..obs import get_metrics, get_profiler, get_tracer
from .plan import Chunk, ChunkPlan, assign_chunks
from .workload import ChunkWorkload

logger = logging.getLogger(__name__)

#: Execution backends, in increasing isolation order.
BACKENDS = ("serial", "thread", "process")


@dataclass
class WorkerReport:
    """What one worker did: its chunks, vertices, counters, and time.

    ``telemetry`` carries a process-backend worker's shipped payload
    (its real span records, metrics registry, folded profile stacks and
    clock epoch) — ``None`` for in-process workers, whose telemetry
    lands in the shared tracer/registry directly.
    """

    worker_id: int
    num_chunks: int
    num_vertices: int
    elapsed_s: float
    stats: KernelStats = field(default_factory=KernelStats)
    telemetry: Optional[Dict[str, Any]] = None


@dataclass
class ExecutionReport:
    """One executor invocation: per-worker reports plus wall time."""

    backend: str
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


# ----------------------------------------------------------------------
# Process-backend worker entry points (module level: must be picklable).
# ----------------------------------------------------------------------
_WORKER_STATE: Dict[str, Any] = {}


@dataclass(frozen=True)
class WorkerTelemetryPlan:
    """Picklable instructions for a worker process's own telemetry.

    Shipped through the pool initializer: when the parent's tracer or
    registry is live, each worker batch runs under a *fresh* tracer +
    registry of its own (never the fork-inherited parent singletons —
    writing there would be lost and double-counted), and optionally a
    sampling profiler at the parent's rate.  The collected records ride
    back with the chunk results.
    """

    telemetry: bool = False
    sampling_hz: Optional[float] = None


def _process_init(
    workload: ChunkWorkload, plan: Optional[WorkerTelemetryPlan] = None
) -> None:
    workload.prepare()
    _WORKER_STATE["workload"] = workload
    _WORKER_STATE["plan"] = plan or WorkerTelemetryPlan()


def _process_run(worker_id: int, chunks: List[Chunk]):
    workload = _WORKER_STATE["workload"]
    plan: WorkerTelemetryPlan = _WORKER_STATE.get("plan") or WorkerTelemetryPlan()
    if not plan.telemetry:
        start = time.perf_counter()
        stats = KernelStats()
        writes = []
        for chunk in chunks:
            chunk_writes, chunk_stats = workload.run_chunk(chunk)
            writes.append(chunk_writes)
            stats.merge(chunk_stats)
        return worker_id, writes, stats, time.perf_counter() - start, None

    # Telemetry path: fresh per-batch obs objects (one OS process can
    # serve several batches; each batch ships an independent capture).
    from .. import obs

    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()
    obs.set_tracer(tracer)
    obs.set_metrics(registry)
    profiler = (
        obs.SamplingProfiler(tracer=tracer, hz=plan.sampling_hz, registry=registry)
        if plan.sampling_hz
        else None
    )
    try:
        if profiler is not None:
            profiler.start()
        start = time.perf_counter()
        stats = KernelStats()
        writes = []
        vertices = 0
        with tracer.span(
            "worker",
            worker_id=worker_id,
            backend="process",
            pid=os.getpid(),
            chunks=len(chunks),
            **workload.describe(),
        ) as span:
            for chunk in chunks:
                chunk_writes, chunk_stats = workload.run_chunk(chunk)
                writes.append(chunk_writes)
                stats.merge(chunk_stats)
                vertices += chunk.num_vertices
            span.set_attr("vertices", vertices)
            span.add_counters(stats.as_dict())
        elapsed = time.perf_counter() - start
        if profiler is not None:
            profiler.stop()
        obs.publish_counters(registry, "work", stats.as_dict(include_extra=False))
        payload = {
            "spans": [s.to_record() for s in tracer.spans()],
            "metrics": registry,
            "profile": profiler.data if profiler is not None else None,
            "epoch_unix": tracer.epoch_unix,
        }
        return worker_id, writes, stats, elapsed, payload
    finally:
        if profiler is not None:
            profiler.stop()
        obs.disable()


class ChunkExecutor:
    """Runs a chunk plan on one of the three backends.

    Args:
        backend: ``serial``, ``thread``, or ``process``.
        workers: number of workers; must be 1 for ``serial``.
    """

    def __init__(self, backend: str = "serial", workers: int = 1) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if backend == "serial" and workers != 1:
            raise ValueError("serial backend runs exactly one worker")
        self.backend = backend
        self.workers = workers
        self.last_report: Optional[ExecutionReport] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChunkExecutor(backend={self.backend!r}, workers={self.workers})"

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
            if self.backend == "process":
                # _run_process short-circuits an all-empty assignment to
                # idle reports, so no special empty-plan routing needed.
                reports = self._run_process(workload, assignment, outputs)
            elif self.backend == "thread" and self.workers > 1:
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
            backend=self.backend,
            workers=self.workers,
            wall_time_s=wall_time,
            worker_reports=reports,
        )
        self.last_report = execution
        self._emit_telemetry(plan, execution)
        return outputs, merged, execution

    def _emit_telemetry(self, plan: ChunkPlan, execution: ExecutionReport) -> None:
        """Worker spans plus registry counters, real or synthesized.

        Process-backend workers that shipped a telemetry payload get the
        *real* treatment: their span records (measured in the worker, on
        the worker's clock) are adopted under the caller's open span with
        the clock offset corrected, their registries merge into the
        parent under a ``worker<id>.`` prefix, and their folded profile
        stacks are absorbed into the active profiler under a
        ``worker-<id>`` root frame.  Workers without a payload (thread /
        serial backends, whose telemetry already landed in the shared
        tracer and registry, or idle process workers) keep the old
        synthesized span, now marked ``synthesized: True``.
        """
        tracer = get_tracer()
        if tracer.enabled:
            for report in execution.worker_reports:
                payload = report.telemetry
                if payload and payload.get("spans"):
                    offset = float(payload["epoch_unix"]) - tracer.epoch_unix
                    tracer.adopt(payload["spans"], offset_s=offset)
                else:
                    tracer.record(
                        "worker",
                        duration_s=report.elapsed_s,
                        attrs={
                            "worker_id": report.worker_id,
                            "backend": self.backend,
                            "chunks": report.num_chunks,
                            "vertices": report.num_vertices,
                            "synthesized": True,
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
                payload = report.telemetry
                if payload and payload.get("metrics") is not None:
                    metrics.merge(
                        payload["metrics"], prefix=f"worker{report.worker_id}."
                    )
        profiler = get_profiler()
        if profiler.enabled:
            for report in execution.worker_reports:
                payload = report.telemetry
                if payload and payload.get("profile") is not None:
                    profiler.absorb(
                        payload["profile"], source=f"worker-{report.worker_id}"
                    )
        # imbalance is O(workers) numpy work — don't compute it eagerly
        # just to discard it when DEBUG is off (this runs per kernel call).
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "%s x%d ran %d chunks in %.4fs (imbalance %.2f)",
                self.backend,
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

    def _run_process(self, workload, assignment, outputs) -> List[WorkerReport]:
        reports: List[WorkerReport] = []
        busy = [
            (worker_id, chunks)
            for worker_id, chunks in enumerate(assignment)
            if chunks
        ]
        idle = [worker_id for worker_id, chunks in enumerate(assignment) if not chunks]
        if not busy:
            # All-empty assignment: nothing to compute, so skip the pool
            # entirely — a ProcessPoolExecutor would still fork workers
            # and pickle the whole workload through the initializer.
            return [
                WorkerReport(
                    worker_id=worker_id,
                    num_chunks=0,
                    num_vertices=0,
                    elapsed_s=0.0,
                    stats=KernelStats(),
                )
                for worker_id in idle
            ]
        profiler = get_profiler()
        plan = WorkerTelemetryPlan(
            telemetry=get_tracer().enabled or get_metrics().enabled,
            sampling_hz=profiler.hz if profiler.enabled else None,
        )
        with ProcessPoolExecutor(
            max_workers=max(1, len(busy)),
            initializer=_process_init,
            initargs=(workload, plan),
        ) as pool:
            futures = [
                pool.submit(_process_run, worker_id, chunks)
                for worker_id, chunks in busy
            ]
            for future in futures:
                worker_id, writes, stats, elapsed, telemetry = future.result()
                for chunk_writes in writes:
                    for name, (idx, rows) in chunk_writes.items():
                        outputs[name][idx] = rows
                chunks = assignment[worker_id]
                reports.append(
                    WorkerReport(
                        worker_id=worker_id,
                        num_chunks=len(chunks),
                        num_vertices=sum(chunk.num_vertices for chunk in chunks),
                        elapsed_s=elapsed,
                        stats=stats,
                        telemetry=telemetry,
                    )
                )
        for worker_id in idle:
            reports.append(
                WorkerReport(
                    worker_id=worker_id,
                    num_chunks=0,
                    num_vertices=0,
                    elapsed_s=0.0,
                    stats=KernelStats(),
                )
            )
        return reports
