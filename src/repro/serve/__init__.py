"""Online GNN inference serving, observability-first.

The serving plane answers per-vertex / per-batch classification and
embedding queries against a trained model, built from four pieces:

* :mod:`repro.serve.server` — :class:`InferenceService` (the request
  pipeline) and :class:`ServingServer` (the HTTP/1.1 keep-alive
  front end);
* :mod:`repro.serve.batcher` — bounded admission queue + work-conserving
  request coalescing (no timer) on one worker thread;
* :mod:`repro.serve.cache` — the per-vertex answer table one
  full-graph forward fills at start-up, with fresh flags;
* :mod:`repro.serve.loadgen` — the benchmark client (open-loop Poisson
  arrivals, closed-loop concurrency sweep, client-side percentiles).

Every request is born with a trace id under a ``serve.request`` span; a
refill renders as the tree ``serve.request → serve.queue → serve.batch
→ kernel.*`` when tracing is on, a table hit as the bare request.  The
``serve.*`` metric families flow through the active registry
to ``/metrics``, SLO rules, ``repro top``, and the run report.
"""

from .batcher import RequestBatcher, ServeRequest
from .cache import EmbeddingCache
from .loadgen import (
    LoadgenResult,
    concurrency_sweep,
    run_loadgen,
    write_results,
)
from .server import (
    DEFAULT_TIMEOUT_S,
    MODES,
    AdmissionRejected,
    BatchFailed,
    InferenceService,
    RequestTimeout,
    ServingServer,
)

__all__ = [
    "AdmissionRejected",
    "BatchFailed",
    "DEFAULT_TIMEOUT_S",
    "EmbeddingCache",
    "InferenceService",
    "LoadgenResult",
    "MODES",
    "RequestBatcher",
    "RequestTimeout",
    "ServeRequest",
    "ServingServer",
    "concurrency_sweep",
    "run_loadgen",
    "write_results",
]
