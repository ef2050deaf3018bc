"""Byte identity of the kernel-free oracle and of the service's tables.

SHA-1 of every array the oracle plane hands out — the ψ factors, the
normalized adjacency's three CSR arrays, the forward and transposed
aggregations, kernel-free ``predict`` — and of ``InferenceService``'s
logits table and kept ``Â · features``, on the four 1x twins, on a graph
with duplicate edges and self loops (which scipy's ``adj + diag``
merges), on an edgeless graph and on an empty one.  The table was
recorded before the oracle stopped allocating ``E``-long fp64 arrays:
a memory change must leave every byte where it was.

The ``predict`` and ``service`` digests run BLAS GEMMs, whose last bits
may differ between BLAS builds or CPU families; those two rows hold for
the host and numpy build they were recorded on.
"""

import hashlib

import numpy as np
import pytest

from repro.graphs import CSRGraph, load_dataset, synthetic_features
from repro.nn import (
    AGGREGATORS, aggregate, aggregate_backward, build_model,
    normalization_factors, normalized_adjacency,
)
from repro.serve import InferenceService

#: Input width, hidden width and classes of the pinned models: layer 0
#: aggregates first (its ``Â · X`` is what ``predict`` must drop before
#: layer 1), layer 1 runs transform-first in layer 0's sweep.
WIDTHS = (24, 32, 8)


def _graph(key):
    if key == "duplicates":
        rng = np.random.default_rng(11)
        edges = rng.integers(0, 300, size=(3000, 2))
        loops = np.repeat(np.arange(0, 300, 7), 2)
        edges = np.concatenate([edges, edges[:400], np.stack([loops, loops], 1)])
        return CSRGraph.from_edges(300, edges, deduplicate=False)
    if key == "edgeless":
        return CSRGraph.from_edges(5, [])
    if key == "empty":
        return CSRGraph.from_edges(0, [])
    return load_dataset(key, 1, seed=3)


def _sha(*arrays):
    sha = hashlib.sha1()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def _factors(graph, x, models):
    return _sha(*(f for agg in AGGREGATORS for f in normalization_factors(graph, agg)))


def _adjacency(graph, x, models):
    arrays = []
    for agg in AGGREGATORS:
        a_hat = normalized_adjacency(graph, agg)
        arrays += [a_hat.indptr, a_hat.indices, a_hat.data]
    return _sha(*arrays)


def _aggregate(graph, x, models):
    return _sha(*(aggregate(graph, x, agg) for agg in AGGREGATORS))


def _backward(graph, x, models):
    return _sha(*(aggregate_backward(graph, x, agg) for agg in AGGREGATORS))


def _predict(graph, x, models):
    return _sha(*(model.predict(graph, x) for model in models))


def _service(graph, x, models):
    arrays = []
    for model in models:
        service = InferenceService(graph, x, model)
        try:
            arrays += [service.cache.logits, service._first_aggregation]
        finally:
            service.close()
    return _sha(*arrays)


QUANTITIES = {
    "factors": _factors, "adjacency": _adjacency, "aggregate": _aggregate,
    "backward": _backward, "predict": _predict, "service": _service,
}

GRAPHS = ("products", "wikipedia", "papers", "twitter", "duplicates",
          "edgeless", "empty")

#: SHA-1 per (graph, quantity); every aggregator's (or both models')
#: arrays feed one digest, each with its dtype and shape.
DIGESTS = {
    ("products", "adjacency"): "7b6a49ae5d4388716a98cd6204c2ffd6a99556fc",
    ("products", "aggregate"): "a4dd0ea775f672996181539f7db1a50f8f8c2c94",
    ("products", "backward"): "1e3d2f66abb67998d7c02ec5d6b7f84716e36465",
    ("products", "factors"): "e4513f63ff19b12ec4a46ddd35fb8e42600c216c",
    ("products", "predict"): "f8e142209f6546c8684b723816c0275838691ded",
    ("products", "service"): "0ecea420165f2a36f2ae2cf15591da495d9bef60",
    ("wikipedia", "adjacency"): "3ad962c6dade9a9c0156f9275812e95eb98d82bf",
    ("wikipedia", "aggregate"): "b8c05eb4aab21e179d9eeca5e2cbaa775c19cc5d",
    ("wikipedia", "backward"): "e91c66d9aa5d4eea598d8a152ea3e673c9bb59ec",
    ("wikipedia", "factors"): "b5eacd5217b0b34f2c1655655e781392f2703463",
    ("wikipedia", "predict"): "9ee791e5093242e6491bd171bf533178bfb01d12",
    ("wikipedia", "service"): "9aab58ce14d32e9b0f0c27b7c66bc322ce1866f1",
    ("papers", "adjacency"): "430582a853ae1b6a686d458759c7a0742d2cc4d0",
    ("papers", "aggregate"): "5a1afc22a8294e15a785266534075ccc855678a7",
    ("papers", "backward"): "bc46923fde3843d53d05c35ce057f85874330f14",
    ("papers", "factors"): "bfc8cb9956434543975401af011160854b120801",
    ("papers", "predict"): "5a3be7b675c19818c7c862c5260c0580e06740bd",
    ("papers", "service"): "6961ec075e8b96d2782090d774530a3635147cff",
    ("twitter", "adjacency"): "b7dc0fcce1f3b91f683cfd4fa0de46ac2fcae3e4",
    ("twitter", "aggregate"): "b434e19bc6d54869bd4c38102a4dc3800b3e2964",
    ("twitter", "backward"): "7672cea35eb3d0dbf6a68a71c3790fe24b4330c1",
    ("twitter", "factors"): "d187b5aefa3232070212101481d9ac77c1794280",
    ("twitter", "predict"): "5cb2a5bb6a00064347db9c0f61b8cf4a8514acae",
    ("twitter", "service"): "177fa73b5ac2bb603acd7d500907fe330d45d128",
    ("duplicates", "adjacency"): "90905a8f9c2dc0b6b7ad882c123ae0c70c7513c3",
    ("duplicates", "aggregate"): "ae1128e502c7ee4b1bac17b7ec17bc2219f92678",
    ("duplicates", "backward"): "25d7ba92f3a580989c5054c34e8d0c5d76ed9c91",
    ("duplicates", "factors"): "d11792f152a20febdf30b215ebc470a82b932f88",
    ("duplicates", "predict"): "e7ddb141d384297a4d1a55b9dcab602f5f891fca",
    ("duplicates", "service"): "756668c97ce5002a6edfcbee8f7fd9fcb4cb0b9c",
    ("edgeless", "adjacency"): "a1a02d38d5e18e2b21b01b292616eb9364ad1902",
    ("edgeless", "aggregate"): "0857b073e0c132420dc3be90d744cbaf33593873",
    ("edgeless", "backward"): "0857b073e0c132420dc3be90d744cbaf33593873",
    ("edgeless", "factors"): "9c18aa991a64d8871c0ac3fd1941c256b0ea1cb6",
    ("edgeless", "predict"): "f72fd47ec8ef0b271fc131847c1129f501e3bd43",
    ("edgeless", "service"): "aead5088a9f8e4fbd8e81f769ec67727bd43c4fe",
    ("empty", "adjacency"): "eb2a6a8256df98882ea2628b59abd42d52d925cc",
    ("empty", "aggregate"): "d5d7fd95ab5732c9737eaea6c7aa82988d0c5558",
    ("empty", "backward"): "d5d7fd95ab5732c9737eaea6c7aa82988d0c5558",
    ("empty", "factors"): "e548eaf4a8eafbcf46b86c605a457361c667a1ec",
    ("empty", "predict"): "d2cb9c00cece41788935515fb41b0c43de2a9c5c",
    ("empty", "service"): "9b8dddfad02d0ea00a8f08e24954cbccb985c8ae",
}


@pytest.fixture(scope="module", params=GRAPHS)
def inputs(request):
    graph = _graph(request.param)
    x = synthetic_features(graph, WIDTHS[0], seed=5)
    models = [build_model(kind, *WIDTHS, seed=2) for kind in ("gcn", "sage")]
    return request.param, graph, x, models


@pytest.mark.parametrize("quantity", sorted(QUANTITIES))
def test_matches_recorded_digest(inputs, quantity):
    key, graph, x, models = inputs
    assert QUANTITIES[quantity](graph, x, models) == DIGESTS[key, quantity]


def test_duplicates_graph_has_duplicate_edges_and_self_loops():
    graph = _graph("duplicates")
    dst = np.repeat(np.arange(graph.num_vertices), graph.degrees())
    keys = dst * graph.num_vertices + graph.indices
    assert len(np.unique(keys)) < graph.num_edges
    assert np.any(dst == graph.indices)
