"""Request batcher: admission queue + work-conserving coalescing.

Inference on one vertex and on thirty-two vertices cost nearly the same
(the frontier dedups, the matmuls batch), so the server coalesces
concurrent requests into one forward pass.  The policy has no timer:

* the worker blocks on the queue; the moment it is free it takes
  *everything already queued*, up to **max_batch** requests, and
  dispatches.  A lone request starts at once; batches form from what
  arrived while the previous batch ran, so occupancy grows with load by
  itself.  Waiting for company would only add latency when the worker
  is idle, and is unnecessary when it is busy — the queue is the
  company.

Upstream of the worker sits a bounded **admission queue**: when it is
full, :meth:`RequestBatcher.submit` refuses immediately (the caller
answers HTTP 503) instead of letting latency collapse under a standing
queue — load shedding as a first-class, counted outcome.  A closed
batcher refuses the same way: nothing is ever parked where no worker
will answer it.

Telemetry: ``serve.queue_depth`` / ``serve.inflight`` gauges,
``serve.batches`` counter, ``serve.batch.occupancy`` and
``serve.latency.queue_s`` histograms, plus one ``serve.queue`` span per
request (parented under that request's ``serve.request`` span) so the
time a request sat queued before dispatch is visible inside its trace
tree.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np


@dataclass
class ServeRequest:
    """One in-flight query travelling handler thread -> worker thread."""

    vertices: np.ndarray  # requested vertex ids (global, possibly repeated)
    mode: str  # "classify" | "embedding"
    trace_id: str
    span: Optional[Any] = None  # the open serve.request Span (or None)
    missing: Optional[np.ndarray] = None  # vertices the table could not answer
    cached_rows: Dict[int, Any] = field(default_factory=dict)
    enqueued_monotonic: float = 0.0
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[Dict[str, Any]] = None
    error: Optional[BaseException] = None
    #: Set by a caller that stopped waiting: nobody will read the answer,
    #: so the batch handler need not compute it.
    abandoned: bool = False

    def finish(self, result: Optional[Dict[str, Any]] = None,
               error: Optional[BaseException] = None) -> None:
        self.result = result
        self.error = error
        self.done.set()


#: Stop sentinel: ``close`` queues it behind the last admitted request.
_STOP: Any = object()


class RequestBatcher:
    """Single worker thread draining a bounded queue into batches."""

    def __init__(
        self,
        handler: Callable[[List[ServeRequest]], None],
        max_batch: int = 32,
        max_queue: int = 128,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.handler = handler
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.batches = 0
        self.submitted = 0
        self.rejected = 0
        # Unbounded underneath: ``submit`` enforces ``max_queue``, so the
        # stop sentinel always fits.  ``_admit`` makes "closed? full?" and
        # "enqueue" one step: every admitted request is ahead of the
        # sentinel, where the worker will answer it.
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._closed = False
        self._admit = threading.Lock()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def _registry(self):
        from ..obs import get_metrics

        return get_metrics()

    def submit(self, request: ServeRequest) -> bool:
        """Enqueue a request; ``False`` means admission-rejected (the
        queue is full, or the batcher is closed)."""
        request.enqueued_monotonic = time.monotonic()
        registry = self._registry()
        with self._admit:
            if self._closed or self._queue.qsize() >= self.max_queue:
                self.rejected += 1
                registry.inc("serve.rejected")
                return False
            self._queue.put_nowait(request)
            self.submitted += 1
        registry.set_gauge("serve.queue_depth", float(self._queue.qsize()))
        return True

    def close(self, timeout_s: float = 5.0) -> None:
        """Answer everything already admitted, then stop the worker
        (idempotent)."""
        with self._admit:
            if not self._closed:
                self._closed = True
                self._queue.put_nowait(_STOP)  # also wakes an idle worker
        self._thread.join(timeout=timeout_s)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            item = self._queue.get()  # idle: block until work or stop
            batch: List[ServeRequest] = []
            while item is not _STOP:
                batch.append(item)
                if len(batch) == self.max_batch:
                    break
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
            if batch:
                self._dispatch(batch)
            if item is _STOP:
                return

    def _dispatch(self, batch: List[ServeRequest]) -> None:
        from ..obs import get_tracer

        registry = self._registry()
        tracer = get_tracer()
        now = time.monotonic()
        self.batches += 1
        registry.set_gauge("serve.queue_depth", float(self._queue.qsize()))
        registry.set_gauge("serve.inflight", float(len(batch)))
        registry.inc("serve.batches")
        registry.observe("serve.batch.occupancy", float(len(batch)))
        queue_hist = registry.histogram("serve.latency.queue_s")
        for request in batch:
            waited = max(0.0, now - request.enqueued_monotonic)
            queue_hist.observe(waited)
            tracer.record(
                "serve.queue",
                waited,
                attrs={"trace_id": request.trace_id},
                parent=request.span,
            )
        try:
            self.handler(batch)
        except BaseException as error:  # noqa: BLE001 - worker must survive
            for request in batch:
                if not request.done.is_set():
                    request.finish(error=error)
        finally:
            registry.set_gauge("serve.inflight", 0.0)
            for request in batch:
                if not request.done.is_set():  # handler forgot one: unblock
                    request.finish(
                        error=RuntimeError("batch handler returned no result")
                    )

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def stats(self) -> Dict[str, Any]:
        return {
            "max_batch": self.max_batch,
            "max_queue": self.max_queue,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "batches": self.batches,
            "queue_depth": self.queue_depth,
        }
