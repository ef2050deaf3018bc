"""Online GNN inference service: request loop + instrumented pipeline.

:class:`InferenceService` answers per-vertex / per-batch classification
and embedding queries against a trained :class:`~repro.nn.model.
GNNModel`.  Construction aggregates ``Â · features`` once and keeps it
for refills, then runs one full-graph forward from it and keeps its
``V × C`` logits as the answer table (:mod:`repro.serve.cache`).  One
request's life:

1. **admission** — born with a fresh trace id under a ``serve.request``
   span on the HTTP handler thread;
2. **table** — per-vertex lookup of a fresh row; a classify query on an
   untouched table always answers here, without touching the batcher;
3. **refill: queue + batch** — rows not fresh (invalidated, or embedding
   rows never asked for) park in the batcher, rejected (503) when its
   queue is full; the worker thread, the moment it is free, takes
   everything already queued (up to ``MAX_BATCH``; no timer), records
   each request's ``serve.queue`` wait, and opens one ``serve.batch``
   span parented under the batch's first request;
4. **assemble + forward** — exact neighborhood assembly
   (:func:`~repro.nn.minibatch.assemble_batch`) covers the
   ``num_layers - 1`` hops after the first and the block forward starts
   from the kept rows, so a refilled row equals ``model.predict``'s.
   Its ``kernel.serve.block`` spans nest under ``serve.batch``:
   ``serve.request → serve.queue → serve.batch → kernel.*``;
5. **reply** — table and refilled rows serialize to JSON with the trace
   id and measured latency; refilled rows are written to the table.

:class:`ServingServer` is the HTTP/1.1 keep-alive front end (routes over
:class:`~repro.httpd.HTTPFrontEnd`, like :class:`~repro.obs.live.
MetricsServer`): ``GET/POST /v1/predict``, ``/healthz``,
``/stats.json``.  Publish the ``serve.*`` metrics through a
``MetricsServer`` ``/metrics`` endpoint by enabling telemetry around
the service (the CLI's ``--serve-metrics`` does).
"""

from __future__ import annotations

import json
import time
import uuid
from typing import Any, Dict, List, Sequence, Tuple
from urllib.parse import parse_qs

import numpy as np

from ..graphs.csr import CSRGraph
from ..httpd import HTTPFrontEnd, Reply, error_reply, json_reply
from ..kernels.basic import BasicKernel
from ..nn.minibatch import assemble_batch, block_forward
from ..nn.model import GNNModel
from .batcher import RequestBatcher, ServeRequest
from .cache import EmbeddingCache

#: Query modes a request may ask for.
MODES = ("classify", "embedding")

#: Default end-to-end wait bound before a request gives up (504).
DEFAULT_TIMEOUT_S = 10.0


class AdmissionRejected(RuntimeError):
    """The batcher's admission queue was full — shed, not queued."""


class RequestTimeout(RuntimeError):
    """The batcher did not answer within the request's wait bound."""


class BatchFailed(RuntimeError):
    """The refill batch raised: a server fault (HTTP 500), whatever the
    exception's type."""


class InferenceService:
    """The serving pipeline: answer table -> batcher -> assembled block
    forward for refills.

    Graph and ``features`` are fixed for the life of the service (the
    identity contract ``Trainer`` has for its kept first aggregation).
    Construction aggregates ``Â · features`` (``V × in_features``
    fp32) once through a ``BasicKernel`` and keeps it: it is what every
    refill starts from, and the one full-graph forward that yields the
    logits table is handed it as ``first_aggregation``; the ``V × hidden``
    activations are dropped.
    ``Â · features`` does not depend on the weights, so weight updates
    followed by ``cache.invalidate()`` leave it valid.

    Refills assemble exact neighbourhoods, so every served row equals
    ``model.predict``'s.  The batcher answers at most ``MAX_BATCH``
    requests per forward and sheds (503) past ``MAX_QUEUE`` waiting.
    """

    MAX_BATCH = 32
    MAX_QUEUE = 128

    def __init__(
        self, graph: CSRGraph, features: np.ndarray, model: GNNModel
    ) -> None:
        if features.shape[0] != graph.num_vertices:
            raise ValueError(
                f"feature rows {features.shape[0]} != "
                f"num_vertices {graph.num_vertices}"
            )
        if features.shape[1] != model.layers[0].in_features:
            raise ValueError(
                f"features are {features.shape[1]} wide but the model's "
                f"first layer takes {model.layers[0].in_features}"
            )
        self.graph = graph
        self.features = features
        self.model = model
        kernel = BasicKernel()
        x = features.astype(np.float32, copy=False)
        self._first_aggregation, _ = kernel.aggregate(
            graph, x, model.layers[0].aggregator
        )
        logits, _ = model.forward(
            graph, x, kernel=kernel, keep_hidden=False,
            first_aggregation=self._first_aggregation,
        )
        self.cache = EmbeddingCache(logits, model.layers[-1].in_features)
        self.batcher = RequestBatcher(
            self._run_batch, max_batch=self.MAX_BATCH, max_queue=self.MAX_QUEUE
        )
        self.requests = 0
        self.errors = 0
        self._started_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    def _obs(self):
        from ..obs import get_metrics, get_tracer

        return get_tracer(), get_metrics()

    def query(
        self,
        vertices: Sequence[int],
        mode: str = "classify",
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ) -> Dict[str, Any]:
        """Answer one request (runs on the caller's thread; blocking).

        Raises ``ValueError`` on bad input, :class:`AdmissionRejected`
        under shed load, :class:`RequestTimeout` past ``timeout_s``,
        :class:`BatchFailed` when the refill batch raised.
        """
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        try:
            requested = np.asarray(list(vertices), dtype=np.int64)
        except OverflowError:  # an id past int64 is out of range, not a 500
            raise ValueError(
                f"vertex ids must be in [0, {self.graph.num_vertices})"
            ) from None
        if requested.size == 0:
            raise ValueError("request needs at least one vertex")
        if requested.min() < 0 or requested.max() >= self.graph.num_vertices:
            raise ValueError(
                f"vertex ids must be in [0, {self.graph.num_vertices}), "
                f"got {requested.min()}..{requested.max()}"
            )
        tracer, registry = self._obs()
        trace_id = uuid.uuid4().hex
        start = time.perf_counter()
        self.requests += 1
        with tracer.span(
            "serve.request",
            trace_id=trace_id,
            mode=mode,
            vertices=int(requested.size),
        ) as active:
            registry.inc("serve.requests")
            try:
                values, cached_all, batched = self._resolve(
                    requested, mode, active, trace_id, timeout_s
                )
            except BaseException:
                self.errors += 1
                registry.inc("serve.errors")
                active.set_attr("status", "error")
                raise
            latency_s = time.perf_counter() - start
            registry.observe("serve.latency.request_s", latency_s)
            active.set_attr("cached", cached_all)
            active.set_attr("batched", batched)
            active.set_attr("status", "ok")
        return self._render(requested, mode, values, trace_id, latency_s,
                            cached_all)

    def _resolve(
        self, requested: np.ndarray, mode: str, active: Any, trace_id: str,
        timeout_s: float,
    ) -> Tuple[Dict[int, np.ndarray], bool, bool]:
        """Per-vertex ``mode`` rows: the table first, refill the rest."""
        unique = np.unique(requested)
        cached_rows: Dict[int, np.ndarray] = {}
        missing: List[int] = []
        for v in unique.tolist():
            row = self.cache.get(v, mode)
            if row is None:
                missing.append(v)
            else:
                cached_rows[v] = row
        if not missing:
            return cached_rows, True, False
        request = ServeRequest(
            vertices=requested,
            mode=mode,
            trace_id=trace_id,
            span=getattr(active, "span", None),
            missing=np.asarray(missing, dtype=np.int64),
            cached_rows=cached_rows,
        )
        if not self.batcher.submit(request):
            raise AdmissionRejected(
                "admission refused: queue full "
                f"({self.batcher.max_queue} waiting) or service closed"
            )
        if not request.done.wait(timeout=timeout_s):
            # Nobody will read the answer: its batch need not compute it.
            request.abandoned = True
            raise RequestTimeout(f"no answer within {timeout_s:g}s")
        if request.error is not None:
            raise BatchFailed(
                f"batch failed: {type(request.error).__name__}: {request.error}"
            ) from request.error
        return request.result["values"], False, True

    # ------------------------------------------------------------------
    def _run_batch(self, batch: List[ServeRequest]) -> None:
        """Batcher worker: one assembled forward refills the whole batch."""
        batch = [r for r in batch if not r.abandoned]
        if not batch:
            return
        tracer, registry = self._obs()
        need = np.unique(
            np.concatenate([r.missing for r in batch if r.missing is not None])
        )
        # An invalidate() landing mid-forward makes these rows stale.
        generation = self.cache.generation
        with tracer.span(
            "serve.batch",
            parent=batch[0].span,
            requests=len(batch),
            vertices=int(need.size),
            trace_id=batch[0].trace_id,
            trace_ids=[r.trace_id for r in batch],
        ) as span:
            try:
                with registry.histogram("serve.latency.assemble_s").time():
                    assembled = assemble_batch(
                        self.graph, need, self.model.num_layers - 1
                    )
                with registry.histogram("serve.latency.forward_s").time():
                    result = block_forward(
                        self.graph, self.model, assembled, self.features,
                        first_aggregation=self._first_aggregation,
                    )
                span.add_counters(
                    {"assembled_edges": float(assembled.total_sampled_edges)}
                )
            except BaseException as error:  # noqa: BLE001 - fail the batch
                for request in batch:
                    request.finish(error=error)
                return
            self.cache.put(
                result.query_vertices, result.logits, result.embeddings,
                generation=generation,
            )
            for request in batch:
                rows = (
                    result.logits if request.mode == "classify"
                    else result.embeddings
                )
                at = np.searchsorted(result.query_vertices, request.missing)
                values = dict(request.cached_rows)
                values.update(zip(request.missing.tolist(), rows[at]))
                request.finish(result={"values": values})

    # ------------------------------------------------------------------
    @staticmethod
    def _render(
        requested: np.ndarray,
        mode: str,
        values: Dict[int, np.ndarray],
        trace_id: str,
        latency_s: float,
        cached: bool,
    ) -> Dict[str, Any]:
        response: Dict[str, Any] = {
            "trace_id": trace_id,
            "mode": mode,
            "vertices": [int(v) for v in requested],
            "latency_ms": latency_s * 1e3,
            "cached": cached,
        }
        if mode == "classify":
            rows = [values[v] for v in requested.tolist()]
            response["classes"] = [int(np.argmax(row)) for row in rows]
            response["scores"] = [float(np.max(row)) for row in rows]
        else:
            response["embeddings"] = [
                values[v].tolist() for v in requested.tolist()
            ]
        return response

    def stats(self) -> Dict[str, Any]:
        return {
            "uptime_s": time.monotonic() - self._started_monotonic,
            "requests": self.requests,
            "errors": self.errors,
            "graph": {
                "name": self.graph.name,
                "vertices": self.graph.num_vertices,
                "edges": self.graph.num_edges,
            },
            "model": {
                "layers": self.model.num_layers,
                "widths": self.model.hidden_widths(),
            },
            "cache": self.cache.stats(),
            "batcher": self.batcher.stats(),
        }

    def close(self) -> None:
        """Answer what was admitted, stop the worker, release the kept
        matrix and the table (a closed service admits no refill that
        could read them)."""
        self.batcher.close()
        self._first_aggregation = None
        self.cache.close()


# ----------------------------------------------------------------------
def _query_vertices(query: str) -> Tuple[List[int], str]:
    """``?vertex=3`` / ``?vertices=1,2&mode=embedding`` -> (ids, mode)."""
    params = parse_qs(query)
    vertices: List[int] = []
    try:
        for chunk in params.get("vertices", params.get("vertex", [])):
            vertices.extend(int(v) for v in chunk.split(",") if v)
    except ValueError:
        raise ValueError("vertex ids must be integers") from None
    return vertices, params.get("mode", ["classify"])[0]


def _body_vertices(body: bytes) -> Tuple[List[int], Any]:
    """``{"vertices": [1, 2], "mode": "embedding"}`` -> (ids, mode)."""
    try:
        doc = json.loads(body or b"{}")
    except ValueError:
        doc = None
    if not isinstance(doc, dict):
        raise ValueError(
            "body must be a JSON object with integer 'vertices' and "
            "optional 'mode'"
        )
    vertices = doc.get("vertices", [])
    # ``type(v) is int``: 1.7 would truncate to vertex 1, and True is an int.
    if not isinstance(vertices, list) or any(type(v) is not int for v in vertices):
        raise ValueError("'vertices' must be a list of JSON integers")
    return vertices, doc.get("mode", "classify")


class ServingServer(HTTPFrontEnd):
    """Background HTTP server answering inference queries.

    The routes over :class:`~repro.httpd.HTTPFrontEnd` (one handler
    thread per connection — the batcher is what bounds concurrency).
    Accepted connections and client hang-ups are also published as
    ``serve.connections`` / ``serve.client_disconnects``.
    """

    def __init__(
        self, service: InferenceService, port: int = 0, host: str = "127.0.0.1"
    ) -> None:
        super().__init__("repro-serve", port=port, host=host)
        self.service = service

    def route(self, method: str, path: str, query: str, body: bytes) -> Reply:
        if path == "/v1/predict":
            try:
                vertices, mode = (
                    _query_vertices(query) if method == "GET"
                    else _body_vertices(body)
                )
                response = self.service.query(vertices, mode=mode)
            except ValueError as error:
                return error_reply(400, str(error))
            except BatchFailed as error:
                return error_reply(500, str(error))
            except AdmissionRejected as error:
                return error_reply(503, str(error))
            except RequestTimeout as error:
                return error_reply(504, str(error))
            return json_reply(200, response)
        if method == "GET" and path == "/healthz":
            return json_reply(
                200, {"status": "ok", **self.service.stats()["model"]}
            )
        if method == "GET" and path in ("/", "/stats.json"):
            return json_reply(200, {
                **self.service.stats(),
                "connections": self.connections,  # requests per connection
                "client_disconnects": self.client_disconnects,
            })
        return error_reply(404, "not found")

    def _count(self, counter: str) -> None:
        super()._count(counter)
        self.service._obs()[1].inc(f"serve.{counter}")

    def stop(self) -> None:
        """Stop accepting, answer what was admitted, end the connections."""
        self.stop_accepting()
        self.service.close()
        self.close_connections()
