"""Exact work budget of a served refill.

The first layer's ``Â · features`` is the same matrix for every request,
so ``InferenceService`` keeps it and a refill (a row invalidated since
start-up) assembles one hop fewer than the model has layers: a
single-vertex query on a two-layer model gathers ``deg(v) + 1`` edges,
not its two-hop neighbourhood.  Edge counts are exact, so a hop that
creeps back in fails here, deterministically, rather than in a noisy
latency.
"""

import numpy as np
import pytest

from repro.graphs import power_law_graph, synthetic_features
from repro.nn import build_model
from repro.nn.minibatch import full_neighbor_blocks
from repro.serve import InferenceService
from repro.serve import server as server_module


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(200, 5.0, seed=3, name="budget")


@pytest.fixture()
def seen(monkeypatch):
    """What every ``assemble_batch`` returned and every ``block_forward``
    was handed, read where the service looks them up."""
    seen = {"edges": [], "kept": []}
    assemble, forward = server_module.assemble_batch, server_module.block_forward

    def recording_assemble(*args, **kwargs):
        batch = assemble(*args, **kwargs)
        seen["edges"].append(batch.total_sampled_edges)
        return batch

    def recording_forward(*args, first_aggregation=None, **kwargs):
        seen["kept"].append(first_aggregation)
        return forward(*args, first_aggregation=first_aggregation, **kwargs)

    monkeypatch.setattr(server_module, "assemble_batch", recording_assemble)
    monkeypatch.setattr(server_module, "block_forward", recording_forward)
    return seen


def _service(graph, num_layers):
    features = synthetic_features(graph, 12, seed=1)
    model = build_model("gcn", 12, 8, 4, num_layers=num_layers, seed=0)
    return InferenceService(graph, features, model)


def test_two_layer_miss_assembles_one_hop(graph, seen, telemetry):
    hub = int(np.argmax(graph.degrees()))
    vertices = [hub, 7, 11]
    service = _service(graph, 2)
    service.cache.invalidate()
    with telemetry() as (tracer, _):
        for v in vertices:
            service.query([v])
        service.close()
    assert seen["edges"] == [graph.degree(v) + 1 for v in vertices]
    two_hops = full_neighbor_blocks(graph, np.array([hub]), 2).total_sampled_edges
    assert two_hops > 10 * (graph.degree(hub) + 1)  # what the hub used to cost
    # the first layer's update runs over kept rows and gathers nothing
    gathers = [
        (span.attrs["index"], span.counters["gathers"])
        for span in tracer.spans() if span.name == "kernel.serve.block"
    ]
    assert gathers == [
        pair for v in vertices for pair in ((0, 0.0), (1, graph.degree(v) + 1.0))
    ]


@pytest.mark.parametrize("num_layers", [1, 2, 3])
def test_a_miss_assembles_one_hop_fewer_than_the_model_has(graph, seen, num_layers):
    service = _service(graph, num_layers)
    service.cache.invalidate()
    try:
        service.query([7])
    finally:
        service.close()
    hops = num_layers - 1
    expected = (
        full_neighbor_blocks(graph, np.array([7]), hops).total_sampled_edges
        if hops else 0
    )
    assert seen["edges"] == [expected]


def test_one_kept_matrix_per_service_not_per_batch(graph, seen):
    service = _service(graph, 2)
    service.cache.invalidate()
    try:
        kept = service._first_aggregation
        for v in (3, 5, 8):
            service.query([v])
        service.cache.invalidate()
        service.query([3])
    finally:
        service.close()
    assert kept.shape == (graph.num_vertices, 12) and kept.dtype == np.float32
    assert len(seen["kept"]) == 4
    assert all(handed is kept for handed in seen["kept"])
    assert service._first_aggregation is None  # close() let it go
    other = _service(graph, 2)
    try:
        assert not np.shares_memory(other._first_aggregation, kept)
    finally:
        other.close()
