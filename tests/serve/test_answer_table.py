"""The answer table: one full-graph forward at start-up serves every
fresh classify query.

``InferenceService`` keeps the logits of one ``GNNModel.forward`` as a
``V × C`` table.  These tests pin that the table *is* ``model.predict``,
that a fresh classify query never reaches the refill path (batcher,
assembly), that an invalidated row is refilled once and then served
from the table, and that ``stop()`` releases the table.
"""

import json
import urllib.error
import urllib.request
import weakref

import numpy as np
import pytest

from repro.nn import build_model
from repro.serve import BatchFailed, InferenceService, ServingServer
from repro.serve import server as server_module


@pytest.fixture(scope="module")
def graph(hub_and_loner):
    return hub_and_loner


@pytest.fixture(scope="module")
def features(graph):
    return np.random.default_rng(5).standard_normal(
        (graph.num_vertices, 12)).astype(np.float32)


@pytest.fixture()
def service(graph, features):
    model = build_model("gcn", 12, 10, 6, num_layers=2, seed=2)
    service = InferenceService(graph, features, model)
    yield service
    service.close()


@pytest.fixture()
def refills(monkeypatch, service):
    """Counts of the refill path's entry points, read where the service
    looks them up."""
    seen = {"submit": 0, "assemble": 0}
    submit, assemble = service.batcher.submit, server_module.assemble_batch

    def counting_submit(*args, **kwargs):
        seen["submit"] += 1
        return submit(*args, **kwargs)

    def counting_assemble(*args, **kwargs):
        seen["assemble"] += 1
        return assemble(*args, **kwargs)

    monkeypatch.setattr(service.batcher, "submit", counting_submit)
    monkeypatch.setattr(server_module, "assemble_batch", counting_assemble)
    return seen


@pytest.mark.parametrize("model_type", ["gcn", "sage"])
@pytest.mark.parametrize("num_layers", [1, 2, 3])
def test_table_is_model_predict_on_every_row(graph, features, model_type, num_layers):
    model = build_model(model_type, 12, 10, 6, num_layers=num_layers, seed=4)
    oracle = model.predict(graph, features)
    service = InferenceService(graph, features, model)
    try:
        table = service.cache.logits
        assert table.shape == oracle.shape
        np.testing.assert_array_equal(table.argmax(axis=1), oracle.argmax(axis=1))
        assert np.abs(table - oracle).max() <= 1e-5
        assert len(service.cache) == graph.num_vertices  # every row fresh
    finally:
        service.close()


def test_fresh_classify_query_never_reaches_the_refill_path(service, refills):
    vertices = list(range(0, service.graph.num_vertices, 7))
    response = service.query(vertices)
    for v in (3, 3, 11):
        assert service.query([v])["cached"] is True
    assert response["cached"] is True
    assert refills == {"submit": 0, "assemble": 0}
    stats = service.stats()
    assert (stats["cache"]["misses"], stats["batcher"]["batches"]) == (0, 0)


def test_invalidated_row_misses_once_then_is_served_from_the_table(service, refills):
    expected = service.query([9])["classes"]
    assert service.cache.invalidate(9) == 1
    refilled = service.query([9])
    assert refilled["cached"] is False
    assert refills == {"submit": 1, "assemble": 1}
    assert len(service.cache) == service.graph.num_vertices  # the refill landed
    again = service.query([9])
    assert again["cached"] is True
    assert refills == {"submit": 1, "assemble": 1}
    assert refilled["classes"] == again["classes"] == expected
    assert service.stats()["cache"]["misses"] == 1


def test_embedding_rows_are_filled_on_demand(service, refills):
    first = service.query([4, 5], mode="embedding")
    second = service.query([4, 5], mode="embedding")
    assert (first["cached"], second["cached"]) == (False, True)
    assert refills["assemble"] == 1
    assert first["embeddings"] == second["embeddings"]


def test_stop_releases_the_table(graph, features):
    model = build_model("gcn", 12, 10, 6, num_layers=2, seed=2)
    service = InferenceService(graph, features, model)
    logits = weakref.ref(service.cache.logits)
    embeddings = weakref.ref(service.cache.embeddings)
    server = ServingServer(service, port=0).start()
    server.stop()
    assert logits() is None and embeddings() is None  # by refcount


def test_feature_width_mismatch_is_refused_at_construction(graph, features):
    model = build_model("gcn", 16, 10, 6, num_layers=2, seed=2)
    with pytest.raises(ValueError, match=r"12 wide.*takes 16"):
        InferenceService(graph, features, model)


def test_exception_inside_a_batch_is_a_500_not_a_400(service, monkeypatch):
    """A fault of the server (here a numpy shape error, which is a
    ValueError) must not be answered as the client's fault."""

    def broken_forward(*args, **kwargs):
        raise ValueError("matmul: Input operand 1 has a mismatch")

    monkeypatch.setattr(server_module, "block_forward", broken_forward)
    service.cache.invalidate(3)
    with pytest.raises(BatchFailed, match="ValueError: matmul"):
        service.query([3])
    with ServingServer(service, port=0) as server:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/v1/predict?vertex=3", timeout=10)
        assert excinfo.value.code == 500
        assert "matmul" in json.loads(excinfo.value.read())["error"]
        # rows still in the table are served as before
        with urllib.request.urlopen(f"{server.url}/v1/predict?vertex=4",
                                    timeout=10) as reply:
            assert reply.status == 200
