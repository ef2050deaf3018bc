"""``transposed_layout`` builds ``Âᵀ`` (or its restriction to the edges
out of a loss mask's live rows) from the forward layout alone.  The two
constructions it replaced are the oracles here — the CSC-view transpose
and its filter to live sources — and every operator the builder makes
equals theirs array for array, with no sort run.
"""

import numpy as np
import pytest

from repro.graphs import CSRGraph, power_law_graph
from repro.kernels.jit import JitKernelCache, KernelSpec, transposed_layout
from repro.kernels.segment import ScaledCSR
from repro.nn.aggregate import normalization_factors


def _forward(graph, aggregator):
    return ScaledCSR.from_csr(
        graph.indptr, graph.indices,
        *normalization_factors(graph, aggregator), graph.num_vertices,
    )


def _oracle_full(graph, forward):
    """The CSC-view construction: ``csc_arrays`` and ``data[t_perm]``."""
    t_indptr, t_indices, t_perm = graph.csc_arrays()
    return ScaledCSR.from_csr(
        t_indptr, t_indices, forward.matrix.data[t_perm],
        forward.self_factors, graph.num_vertices,
    )


def _oracle_live(graph, forward, live):
    """The filter of the full transposed layout down to live sources."""
    full = _oracle_full(graph, forward).matrix
    keep = live[full.indices]
    counts = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=counts[1:])
    return ScaledCSR.from_csr(
        counts[full.indptr], full.indices[keep], full.data[keep],
        forward.self_factors, graph.num_vertices,
    )


def _assert_same(got, expected):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(
            getattr(got.matrix, name), getattr(expected.matrix, name)
        ), name
    assert got.matrix.shape == expected.matrix.shape
    assert np.array_equal(got.self_factors, expected.self_factors)


@pytest.fixture()
def no_sort(monkeypatch):
    """Fail any numpy sort the builder might run."""
    def refuse(*args, **kwargs):
        raise AssertionError("a transposed layout is a counting pass, never a sort")

    for name in ("argsort", "sort", "lexsort"):
        monkeypatch.setattr(np, name, refuse)


def _graphs():
    rng = np.random.default_rng(5)
    edges = rng.integers(0, 40, size=(300, 2))
    edges = edges[edges[:, 1] < 30]  # sources 30..39 have no out-edges
    edges = edges[edges[:, 0] < 35]  # rows 35..39 have no in-edges
    return {
        "power_law": power_law_graph(400, 6.0, seed=11, name="pl"),
        "power_law_dense": power_law_graph(300, 20.0, seed=12, name="pld"),
        # Duplicate (dst, src) pairs, as ``from_edges`` keeps them.
        "duplicates": CSRGraph.from_edges(
            8, [(0, 1), (0, 1), (0, 2), (3, 1), (3, 1), (3, 1), (5, 0), (1, 0), (1, 0)]
        ),
        # Isolated vertices, rows with no in-edges and sources with no
        # out-edges, from a random edge list.
        "ragged": CSRGraph.from_edges(45, edges),
        "isolated": CSRGraph.from_edges(6, []),
    }


GRAPHS = _graphs()


def _masks(n):
    rng = np.random.default_rng(n)
    return {
        "random": rng.random(n) < 0.4,
        "all_true": np.ones(n, bool),
        "all_false": np.zeros(n, bool),
    }


@pytest.mark.parametrize("aggregator", ["gcn", "mean"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_full_transpose_equals_the_csc_construction(name, aggregator, no_sort):
    graph = CSRGraph(GRAPHS[name].indptr, GRAPHS[name].indices)
    forward = _forward(graph, aggregator)
    got = transposed_layout(forward)
    assert graph._csc is None  # the builder never reads the CSC view
    assert got.self_factors is forward.self_factors
    _assert_same(got, _oracle_full(graph, forward))


@pytest.mark.parametrize("aggregator", ["gcn", "mean"])
@pytest.mark.parametrize("mask", ["random", "all_true", "all_false"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_live_layout_equals_the_filtered_transpose(name, mask, aggregator, no_sort):
    graph = CSRGraph(GRAPHS[name].indptr, GRAPHS[name].indices)
    live = _masks(graph.num_vertices)[mask]
    forward = _forward(graph, aggregator)
    got = transposed_layout(forward, live)
    assert graph._csc is None
    _assert_same(got, _oracle_live(graph, forward, live))
    assert got.nnz == int(graph.degrees()[live].sum())


@pytest.mark.parametrize("aggregator", ["gcn", "mean"])
def test_cache_layouts_equal_the_oracles(aggregator, no_sort):
    """The cache's full transposed layout and live layout are the
    builder's, and a mask edited in place between epochs is served the
    layout of its new values."""
    graph = CSRGraph(GRAPHS["power_law"].indptr, GRAPHS["power_law"].indices)
    cache = JitKernelCache()
    live = _masks(graph.num_vertices)["random"]
    spec = KernelSpec(feature_len=4, aggregator=aggregator)
    forward = cache.specialize(graph, spec)
    for _ in range(3):
        _assert_same(
            cache.live_layout(graph, aggregator, live),
            _oracle_live(graph, forward, live),
        )
        live[::3] = ~live[::3]  # in place, new values
    backward = cache.specialize_backward(graph, spec)
    _assert_same(backward, _oracle_full(graph, forward))
