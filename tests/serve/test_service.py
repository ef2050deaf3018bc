"""The inference service and its HTTP front end, traced: a refilled
request is one ``serve.request -> serve.queue -> serve.batch ->
kernel.serve.block`` span tree under one trace id, and served logits
equal ``model.predict``'s.  A classify query on a fresh table never
reaches the batcher, so refill tests go through ``cache.invalidate()``
or embedding mode.
"""

import http.client
import json
import operator
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest
from conftest import WAIT_S, wait_until

from repro import obs
from repro.nn import GNNModel, build_model
from repro.serve import (
    AdmissionRejected, InferenceService, RequestTimeout, ServingServer,
    run_loadgen,
)
from repro.serve import server as server_module


@pytest.fixture()
def setup(small_products, features16):
    model = build_model("gcn", 16, 8, 5, num_layers=2, seed=1)
    service = InferenceService(small_products, features16, model)
    yield small_products, features16, model, service
    service.close()


@pytest.fixture()
def service(setup):
    return setup[3]


class Gate:
    """Wraps one of the service's callables, by default its batch
    handler: every call is held at the gate until the test opens it."""

    def __init__(self, service, hold="batcher.handler"):
        self.entered = threading.Semaphore(0)
        self.open = threading.Event()
        path, _, name = hold.rpartition(".")
        owner = operator.attrgetter(path)(service)
        self._forward = getattr(owner, name)
        setattr(owner, name, self)

    def __call__(self, *args, **kwargs):
        self.entered.release()
        assert self.open.wait(timeout=WAIT_S)
        return self._forward(*args, **kwargs)

    def wait_entered(self):
        assert self.entered.acquire(timeout=WAIT_S)


class Caller(threading.Thread):
    """One ``service.query`` on its own thread; keeps what came back."""

    def __init__(self, service, vertices, **kwargs):
        super().__init__()
        self.service, self.vertices, self.kwargs = service, vertices, kwargs
        self.response = self.error = None
        self.start()

    def run(self):
        try:
            self.response = self.service.query(self.vertices, **self.kwargs)
        except Exception as error:  # noqa: BLE001 - the test inspects it
            self.error = error

    def finished(self):
        self.join(timeout=WAIT_S)
        assert not self.is_alive()
        return self


def get_json(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def post_json(url, doc, timeout=10.0):
    request = urllib.request.Request(
        url,
        data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


class TestQuery:
    def test_classify_matches_full_graph_predict(self, setup):
        graph, features, model, service = setup
        oracle = model.predict(graph, features)
        response = service.query([0, 3, 7], mode="classify")
        assert response["classes"] == [int(oracle[v].argmax()) for v in (0, 3, 7)]
        assert response["scores"] == pytest.approx(
            [float(oracle[v].max()) for v in (0, 3, 7)], abs=1e-4)

    def test_repeated_vertices_answered_per_position(self, service):
        response = service.query([5, 5, 2, 5])
        assert len(response["classes"]) == 4
        assert response["classes"][0] == response["classes"][1]
        assert response["classes"][1] == response["classes"][3]

    def test_embedding_mode_row_width_is_last_hidden(self, setup):
        _, _, model, service = setup
        response = service.query([1, 2], mode="embedding")
        assert len(response["embeddings"]) == 2
        # the embedding is the input to the final layer
        assert len(response["embeddings"][0]) == model.layers[-1].in_features

    def test_bad_input_raises_value_error(self, service):
        for vertices, mode in (([], "classify"), ([0], "nope"),
                               ([10**9], "classify"), ([-1], "classify")):
            with pytest.raises(ValueError):
                service.query(vertices, mode=mode)

    def test_stats_document(self, setup):
        graph, _, _, service = setup
        service.query([0])
        stats = service.stats()
        assert stats["requests"] == 1
        assert stats["graph"]["vertices"] == graph.num_vertices


class TestAgainstPredict:
    """Served rows equal ``model.predict`` row for row, whatever the
    model's depth: the kept first aggregation plus ``num_layers - 1``
    assembled hops is the same function."""

    @pytest.fixture(scope="class")
    def features(self, hub_and_loner):
        rng = np.random.default_rng(21)
        return rng.standard_normal((hub_and_loner.num_vertices, 12)).astype(np.float32)

    @staticmethod
    def query_vertices(graph):
        hub = int(np.argmax(graph.degrees()))
        isolated = graph.num_vertices - 1
        assert graph.degree(isolated) == 0
        assert graph.degree(hub) > 10 * graph.num_edges / graph.num_vertices
        # unsorted, with repeats, hub and isolated vertex included
        return [17, hub, 3, isolated, 17, 5, hub, 0]

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("model_type", ["gcn", "sage"])
    def test_logits_and_embeddings_match(
        self, hub_and_loner, features, model_type, num_layers
    ):
        graph = hub_and_loner
        model = build_model(model_type, 12, 10, 6, num_layers=num_layers,
                            seed=num_layers)
        oracle = model.predict(graph, features)
        # what the final layer reads: the output of the layers before it
        final_input = (
            GNNModel(model.layers[:-1]).predict(graph, features)
            if num_layers > 1 else features
        )
        vertices = self.query_vertices(graph)
        service = InferenceService(graph, features, model)
        try:
            request = np.asarray(vertices)
            service.cache.invalidate()  # refill every row
            values, cached, batched = service._resolve(
                request, "classify", None, "t", WAIT_S)
            embeddings, _, _ = service._resolve(request, "embedding", None, "t", WAIT_S)
            classified = service.query(vertices)
            embedded = service.query(vertices, mode="embedding")
        finally:
            service.close()
        assert (cached, batched) == (False, True)
        assert sorted(values) == sorted(set(vertices))
        for v, logits in values.items():
            embedding = embeddings[v]
            np.testing.assert_allclose(logits, oracle[v], atol=1e-4)
            np.testing.assert_allclose(embedding, final_input[v], atol=1e-4)
        assert classified["vertices"] == vertices
        assert classified["scores"] == pytest.approx(
            [float(oracle[v].max()) for v in vertices], abs=1e-4)
        assert np.asarray(embedded["embeddings"]) == pytest.approx(
            final_input[vertices], abs=1e-4)

    def test_weight_update_keeps_the_first_aggregation_valid(self, setup):
        graph, features, model, service = setup
        kept = service._first_aggregation
        before = service.query([3])
        for layer in model.layers:
            layer.weight *= 0.5
        service.cache.invalidate()
        after = service.query([3])
        oracle = model.predict(graph, features)
        assert service._first_aggregation is kept
        assert after["scores"] == pytest.approx([float(oracle[3].max())], abs=1e-4)
        assert after["scores"] != before["scores"]

    def test_invalidate_overtaking_a_batch_drops_its_stale_rows(self, setup):
        """A batch computed with the old weights must not write its rows
        after an invalidate() that overtook it: with no staleness bound
        the cache would serve them forever."""
        graph, features, model, service = setup
        service.cache.invalidate(5)  # the query below refills
        gate = Gate(service, hold="cache.put")  # forward done, write held
        try:
            held = Caller(service, [5])
            gate.wait_entered()
            for layer in model.layers:
                layer.weight *= 0.5
            service.cache.invalidate()
            gate.open.set()
            assert held.finished().error is None
        finally:
            gate.open.set()
        assert service.cache.stale_puts == 1
        assert len(service.cache) == 0
        oracle = model.predict(graph, features)
        after = service.query([5])
        assert after["cached"] is False
        assert after["classes"] == [int(oracle[5].argmax())]
        assert after["scores"] == pytest.approx([float(oracle[5].max())], abs=1e-4)
        assert service.query([5])["cached"] is True  # fresh rows do land


class TestTracePropagation:
    def test_request_span_tree_shares_one_trace_id(self, service, telemetry):
        service.cache.invalidate()  # a refill: the full tree
        with telemetry() as (tracer, _):
            response = service.query([2, 9])
        tid = response["trace_id"]
        spans = tracer.spans()
        request = next(
            s for s in spans
            if s.name == "serve.request" and s.attrs.get("trace_id") == tid
        )
        children = [s for s in spans if s.parent_id == request.span_id]
        names = sorted(s.name for s in children)
        assert names == ["serve.batch", "serve.queue"]
        batch = next(s for s in children if s.name == "serve.batch")
        assert tid in ([batch.attrs.get("trace_id")]
                       + list(batch.attrs.get("trace_ids", [])))
        kernels = [s for s in spans if s.parent_id == batch.span_id]
        assert kernels
        assert all(s.name == "kernel.serve.block" for s in kernels)
        assert len(kernels) == service.model.num_layers

    def test_cache_hit_request_has_no_batch_child(self, service, telemetry):
        service.query([6])  # fills the cache, untraced
        with telemetry() as (tracer, _):
            response = service.query([6])
        assert response["cached"] is True
        request = next(s for s in tracer.spans() if s.name == "serve.request")
        assert [s for s in tracer.spans() if s.parent_id == request.span_id] == []

    def test_serve_metrics_published(self, service, telemetry):
        service.cache.invalidate(1)  # the first query refills
        with telemetry() as (_, registry):
            service.query([1])
            service.query([1])
        snapshot = registry.snapshot()
        assert snapshot["serve.requests"]["value"] == 2.0
        assert snapshot["serve.cache.hits"]["value"] >= 1.0
        assert snapshot["serve.latency.request_s"]["count"] == 2
        assert {"serve.latency.assemble_s", "serve.latency.forward_s",
                "serve.batch.occupancy"} <= set(snapshot)


class TestTimeoutsAndShedding:
    def test_timeout_raises(self, service):
        service.cache.invalidate()
        gate = Gate(service)
        try:
            with pytest.raises(RequestTimeout):
                # the batch is held at the gate, past the 10 ms bound
                service.query([0], timeout_s=0.01)
        finally:
            gate.open.set()

    def test_admission_rejection_when_queue_full(self, setup):
        graph, features, model, _ = setup
        service = InferenceService(graph, features, model)
        # The batcher reads its bounds on every submit and dispatch.
        service.batcher.max_batch = service.batcher.max_queue = 1
        service.cache.invalidate()
        gate = Gate(service)
        try:
            callers = [Caller(service, [0])]
            gate.wait_entered()  # one request occupies the worker ...
            callers.append(Caller(service, [1]))
            wait_until(lambda: service.batcher.queue_depth == 1)
            # ... one fills the queue; the rest shed synchronously
            for v in range(2, 8):
                with pytest.raises(AdmissionRejected):
                    service.query([v])
            gate.open.set()
            for caller in callers:
                assert caller.finished().error is None
            assert service.stats()["batcher"]["rejected"] == 6
        finally:
            gate.open.set()
            service.close()

    @pytest.fixture()
    def assembled(self, monkeypatch):
        """The vertex set of every ``assemble_batch`` call the service
        makes, read where the service looks the function up."""
        assembled = []
        plain_assemble = server_module.assemble_batch

        def recording_assemble(graph, vertices, *args, **kwargs):
            assembled.append(sorted(int(v) for v in vertices))
            return plain_assemble(graph, vertices, *args, **kwargs)

        monkeypatch.setattr(server_module, "assemble_batch", recording_assemble)
        return assembled

    def test_abandoned_request_does_not_cost_its_batch(self, setup, assembled):
        """A 504 must not poison the batch it was coalesced into."""
        graph, features, model, service = setup
        oracle = model.predict(graph, features)
        service.cache.invalidate()
        gate = Gate(service)
        _, registry = obs.enable()
        try:
            held = Caller(service, [0])
            gate.wait_entered()
            quitter = Caller(service, [1], timeout_s=0.05).finished()
            assert isinstance(quitter.error, RequestTimeout)
            patient = Caller(service, [2, 3])
            wait_until(lambda: service.batcher.queue_depth == 2)
            gate.open.set()
            held.finished(), patient.finished()
        finally:
            gate.open.set()
            obs.disable()
        # the quitter's vertex was never assembled; its batch mate was
        # answered, and correctly
        assert assembled == [[0], [2, 3]]
        assert patient.response["classes"] == [int(oracle[v].argmax()) for v in (2, 3)]
        assert held.error is None
        assert service.errors == 1
        assert registry.snapshot()["serve.errors"]["value"] == 1.0
        assert service.cache.get(1) is None

    def test_batch_of_only_abandoned_requests_is_skipped(self, service, assembled):
        service.cache.invalidate()
        gate = Gate(service)
        try:
            held = Caller(service, [0])
            gate.wait_entered()
            quitter = Caller(service, [1], timeout_s=0.05).finished()
            assert isinstance(quitter.error, RequestTimeout)
            gate.open.set()
            held.finished()
            gate.wait_entered()  # the quitter's batch did reach the handler
            service.close()
        finally:
            gate.open.set()
        assert assembled == [[0]]


class TestHTTPServer:
    def test_get_predict_healthz_stats(self, service):
        with ServingServer(service, port=0) as server:
            status, doc = get_json(f"{server.url}/v1/predict?vertex=3")
            assert status == 200
            assert doc["vertices"] == [3]
            assert "trace_id" in doc and "classes" in doc
            status, health = get_json(f"{server.url}/healthz")
            assert status == 200 and health["status"] == "ok"
            status, stats = get_json(f"{server.url}/stats.json")
            assert status == 200 and stats["requests"] == 1

    def test_post_predict_batch(self, service):
        with ServingServer(service, port=0) as server:
            status, doc = post_json(f"{server.url}/v1/predict",
                                    {"vertices": [0, 1, 2], "mode": "embedding"})
            assert status == 200
            assert len(doc["embeddings"]) == 3

    def test_error_mapping(self, service):
        with ServingServer(service, port=0) as server:
            for path, expected in (
                ("/v1/predict?vertex=abc", 400),  # non-integer id
                ("/v1/predict", 400),  # no vertices
                ("/v1/predict?vertex=999999999", 400),  # out of range
                ("/v1/predict?vertex=0&mode=nope", 400),  # bad mode
                ("/v1/predict?vertex=" + "9" * 30, 400),  # past int64
                ("/missing", 404),
            ):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    get_json(f"{server.url}{path}")
                assert excinfo.value.code == expected

    @pytest.mark.parametrize(
        "body, named",
        [
            (b"[1,2]", "vertices"),  # not an object
            (b'"vertices"', "vertices"),
            (b"{not json", "vertices"),
            (b'{"vertices":[1.7]}', "vertices"),  # would truncate to 1
            (b'{"vertices":[true]}', "vertices"),  # bool is an int subclass
            (b'{"vertices":["3"]}', "vertices"),
            (b'{"vertices":3}', "vertices"),
            (b'{"vertices":[1e400]}', "vertices"),
            (b'{"vertices":[%s]}' % (b"9" * 30), "vertex ids"),  # past int64
            (b'{"vertices":[-1]}', "vertex ids"),
            (b'{"vertices":[0],"mode":["classify"]}', "mode"),
        ],
    )
    def test_malformed_post_bodies_are_400_naming_the_field(
        self, service, capfd, body, named
    ):
        """Never a dead handler thread, never a 500, never a coerced id —
        and the same connection answers the next request."""
        with ServingServer(service, port=0) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=WAIT_S)
            conn.request("POST", "/v1/predict", body=body)
            response = conn.getresponse()
            assert response.status == 400
            assert named in json.loads(response.read())["error"]
            conn.request("POST", "/v1/predict", body=b'{"vertices":[1]}')
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["vertices"] == [1]
            conn.close()
            assert server.connections == 1
        assert service.requests - service.errors == 1  # nothing ran as vertex 1
        assert capfd.readouterr().err == ""

    def test_connections_are_counted_not_requests(self, service, telemetry):
        """Keep-alive: many requests, one accepted connection — readable
        from ``/stats.json`` and from the ``serve.*`` registry plane."""
        with telemetry() as (_, registry):
            with ServingServer(service, port=0) as server:
                conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                                  timeout=WAIT_S)
                for v in range(10):
                    conn.request("GET", f"/v1/predict?vertex={v}")
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
                conn.request("GET", "/stats.json")
                stats = json.loads(conn.getresponse().read())
                conn.close()
                # a client that hangs up inside a request
                sock = socket.create_connection(("127.0.0.1", server.port))
                sock.sendall(b"POST /v1/predict HTTP/1.1\r\nContent-Length: 50\r\n\r\n{")
                sock.close()
                wait_until(lambda: server.client_disconnects == 1)
        assert stats["requests"] == 10
        assert stats["connections"] == 1 and stats["client_disconnects"] == 0
        snapshot = registry.snapshot()
        assert snapshot["serve.connections"]["value"] == 2.0
        assert snapshot["serve.client_disconnects"]["value"] == 1.0

    def test_loadgen_keeps_one_connection_per_worker(self, setup):
        graph, _, _, service = setup
        with ServingServer(service, port=0) as server:
            closed = run_loadgen(server.url, duration_s=0.3, concurrency=3,
                                 num_vertices=graph.num_vertices)
            assert closed.errors == 0 and closed.requests > 3
            assert server.connections == 3
            opened = run_loadgen(server.url + "/", duration_s=0.3, rate=200.0,
                                 concurrency=4, num_vertices=graph.num_vertices)
            assert opened.errors == 0 and opened.requests > 4
            assert server.connections <= 3 + 4
        assert closed.status_counts == {200: closed.requests}

    def test_loadgen_counts_a_socket_error_as_status_zero(self):
        with socket.socket() as unused:  # bound, never listening
            unused.bind(("127.0.0.1", 0))
            url = "http://127.0.0.1:%d" % unused.getsockname()[1]
            result = run_loadgen(url, duration_s=0.05, concurrency=1)
        assert result.requests == result.errors > 0
        assert set(result.status_counts) == {0}

    def test_stop_closes_batcher(self, service):
        server = ServingServer(service, port=0)
        server.start()
        server.stop()
        assert not service.batcher._thread.is_alive()

    def test_stop_with_requests_in_flight(self, small_products, features16):
        """Every request in flight when ``stop()`` is called gets its
        reply; one that arrives after gets a refusal (503), not a park
        behind the stop sentinel; no thread is left over."""
        threads_before = threading.active_count()
        model = build_model("gcn", 16, 8, 5, num_layers=2, seed=1)
        service = InferenceService(small_products, features16, model)
        service.cache.invalidate()
        gate = Gate(service)
        server = ServingServer(service, port=0).start()
        url = server.url
        statuses = []

        def client(v):
            statuses.append(get_json(f"{url}/v1/predict?vertex={v}")[0])

        try:
            clients = [threading.Thread(target=client, args=(0,))]
            clients[0].start()
            gate.wait_entered()  # held in the worker; the rest queue up
            for v in range(1, 6):
                clients.append(threading.Thread(target=client, args=(v,)))
                clients[-1].start()
            wait_until(lambda: service.batcher.submitted == 6)
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            wait_until(lambda: service.batcher._closed)
            with pytest.raises(AdmissionRejected):
                service.query([9])
            gate.open.set()
            for thread in clients + [stopper]:
                thread.join(timeout=WAIT_S)
                assert not thread.is_alive()
        finally:
            gate.open.set()
            server.stop()
        assert statuses == [200] * 6
        assert not service.batcher._thread.is_alive()
        # connection threads finish on their own once they have replied
        wait_until(lambda: threading.active_count() <= threads_before)
