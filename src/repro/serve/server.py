"""Online GNN inference service: request loop + instrumented pipeline.

:class:`InferenceService` answers per-vertex / per-batch classification
and embedding queries against a trained :class:`~repro.nn.model.
GNNModel`.  One request's life:

1. **admission** — born with a fresh trace id under a ``serve.request``
   span on the HTTP handler thread; rejected (503) when the batcher's
   queue is full;
2. **cache** — per-vertex LRU lookup; a full hit answers without
   touching the compute path;
3. **queue + batch** — the request parks in the batcher; the worker
   thread, the moment it is free, takes everything already queued (up
   to ``max_batch``; no timer), records each request's ``serve.queue``
   wait, and opens one ``serve.batch`` span parented under the batch's
   first request;
4. **assemble + forward** — the first layer's aggregation ``Â ·
   features`` is the same matrix for every request, so the service
   keeps it from construction; neighborhood assembly
   (:func:`~repro.nn.minibatch.assemble_batch`, exact by default)
   covers the remaining ``num_layers - 1`` hops and the vectorized
   block forward starts from the kept rows.  Its ``kernel.serve.block``
   spans nest under ``serve.batch`` — so one traced request renders as
   ``serve.request → serve.queue → serve.batch → kernel.*``;
5. **reply** — per-vertex rows (cached + fresh merged) serialize to
   JSON with the trace id and measured latency; fresh rows feed the
   cache on the way out.

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
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs

import numpy as np

from ..graphs.csr import CSRGraph
from ..httpd import HTTPFrontEnd, Reply, error_reply, json_reply
from ..kernels.segment import ScaledCSR
from ..nn.aggregate import normalization_factors
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


class InferenceService:
    """The serving pipeline: cache -> batcher -> assembled block forward.

    ``features`` are fixed for the life of the service (the identity
    contract ``Trainer`` has for its kept first aggregation): the first
    layer's ``Â · features`` is computed once here, ``V × in_features``
    fp32, and every miss starts from its rows.  It depends on the graph,
    the features and the first layer's aggregator only, so weight updates
    and ``cache.invalidate()`` leave it valid.

    With ``fanouts`` (one per layer, input layer first) the first layer
    stays exact and ``fanouts[1:]`` sample the remaining hops — strictly
    closer to ``model.predict`` than sampling every layer.
    """

    def __init__(
        self,
        graph: CSRGraph,
        features: np.ndarray,
        model: GNNModel,
        cache_capacity: int = 4096,
        cache_max_age_s: Optional[float] = None,
        max_batch: int = 32,
        max_queue: int = 128,
        fanouts: Optional[Sequence[int]] = None,
        seed: int = 0,
    ) -> None:
        if features.shape[0] != graph.num_vertices:
            raise ValueError(
                f"feature rows {features.shape[0]} != "
                f"num_vertices {graph.num_vertices}"
            )
        self.graph = graph
        self.features = features
        self.model = model
        self.fanouts = list(fanouts) if fanouts is not None else None
        if self.fanouts is not None:
            if len(self.fanouts) != model.num_layers:
                raise ValueError("need one fanout per layer")
            for layer, fanout in enumerate(self.fanouts):
                if fanout < 1:
                    raise ValueError(
                        f"fanout of layer {layer} must be >= 1, got {fanout}"
                    )
        edge_factors, self_factors = normalization_factors(
            graph, model.layers[0].aggregator
        )
        # Through the one aggregation core, over the graph's own arrays.
        self._first_aggregation = ScaledCSR.from_csr(
            graph.indptr, graph.indices, edge_factors, self_factors,
            graph.num_vertices,
        )(features.astype(np.float32, copy=False))
        self._rng = np.random.default_rng(seed)
        self.cache = EmbeddingCache(
            capacity=cache_capacity, max_age_s=cache_max_age_s
        )
        self.batcher = RequestBatcher(
            self._run_batch,
            max_batch=max_batch,
            max_queue=max_queue,
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
        under shed load, :class:`RequestTimeout` past ``timeout_s``.
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
                    requested, active, trace_id, timeout_s
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
        self, requested: np.ndarray, active: Any, trace_id: str,
        timeout_s: float,
    ) -> Tuple[Dict[int, Tuple[np.ndarray, np.ndarray]], bool, bool]:
        """Per-vertex (logits, embedding) rows: cache first, batch rest."""
        unique = np.unique(requested)
        cached_rows: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        missing: List[int] = []
        for v in unique:
            value = self.cache.get(int(v))
            if value is None:
                missing.append(int(v))
            else:
                cached_rows[int(v)] = value
        if not missing:
            return cached_rows, True, False
        request = ServeRequest(
            vertices=requested,
            mode="batch",
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
            raise request.error
        return request.result["values"], False, True

    # ------------------------------------------------------------------
    def _run_batch(self, batch: List[ServeRequest]) -> None:
        """Batcher worker: one assembled forward for the whole batch."""
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
                        self.graph, need, self.model.num_layers - 1,
                        fanouts=self.fanouts[1:] if self.fanouts else None,
                        rng=self._rng,
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
            computed: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
            rows = np.searchsorted(result.query_vertices, need)
            for v, row in zip(need.tolist(), rows.tolist()):
                value = (result.logits[row], result.embeddings[row])
                computed[v] = value
                self.cache.put(v, value, generation=generation)
            for request in batch:
                values = dict(request.cached_rows)
                if request.missing is not None:
                    for v in request.missing.tolist():
                        values[v] = computed[v]
                request.finish(result={"values": values})

    # ------------------------------------------------------------------
    @staticmethod
    def _render(
        requested: np.ndarray,
        mode: str,
        values: Dict[int, Tuple[np.ndarray, np.ndarray]],
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
            classes, scores = [], []
            for v in requested.tolist():
                logits, _ = values[v]
                classes.append(int(np.argmax(logits)))
                scores.append(float(np.max(logits)))
            response["classes"] = classes
            response["scores"] = scores
        else:
            response["embeddings"] = [
                [float(x) for x in values[v][1]] for v in requested.tolist()
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
            "assembly": "sampled" if self.fanouts else "exact",
            "cache": self.cache.stats(),
            "batcher": self.batcher.stats(),
        }

    def close(self) -> None:
        """Answer what was admitted, stop the worker, release the kept
        matrix (a closed service admits no miss that could read it)."""
        self.batcher.close()
        self._first_aggregation = None


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
