"""Unit tests for the CSR graph representation."""

import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import CSRGraph, GraphError, load_dataset, uniform_graph
from repro.kernels.jit import JitKernelCache, KernelSpec


class TestConstruction:
    def test_from_edges_basic(self, tiny_graph):
        assert (tiny_graph.num_vertices, tiny_graph.num_edges) == (5, 7)

    def test_neighbors_sorted_per_row(self, tiny_graph):
        assert list(tiny_graph.neighbors(3)) == [0, 1, 2]
        assert list(tiny_graph.neighbors(0)) == [1, 2]

    def test_isolated_vertex_has_no_neighbors(self, tiny_graph):
        assert len(tiny_graph.neighbors(4)) == 0

    def test_degrees(self, tiny_graph):
        assert list(tiny_graph.degrees()) == [2, 1, 1, 3, 0]
        assert tiny_graph.degree(3) == 3

    def test_empty_graph(self):
        graph = CSRGraph.from_edges(0, [])
        assert (graph.num_vertices, graph.num_edges) == (0, 0)

    def test_vertices_without_edges(self):
        graph = CSRGraph.from_edges(4, [(0, 1)])
        assert (graph.num_vertices, graph.num_edges) == (4, 1)

    def test_deduplication(self):
        assert CSRGraph.from_edges(3, [(0, 1), (0, 1), (0, 2)]).num_edges == 2

    def test_deduplication_disabled(self):
        assert CSRGraph.from_edges(3, [(0, 1), (0, 1)], deduplicate=False).num_edges == 2

    def test_out_of_range_edge_rejected(self):
        for edge in ((0, 3), (-1, 0)):
            with pytest.raises(GraphError):
                CSRGraph.from_edges(3, [edge])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(-1, [])


class TestValidation:
    def test_indptr_must_start_at_zero(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_indptr_monotonic(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1]))

    def test_indptr_tail_matches_indices(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_indices_in_range(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([5]))


class TestDerived:
    def test_reverse_transposes(self, tiny_graph):
        rev = tiny_graph.transpose()
        assert rev.num_edges == tiny_graph.num_edges
        # 0 <- 1 in the original becomes 1 <- 0 in the reverse.
        assert 0 in rev.neighbors(1)
        assert 3 in rev.neighbors(0)

    def test_double_reverse_is_identity(self, small_uniform):
        twice = small_uniform.transpose().transpose()
        np.testing.assert_array_equal(twice.indptr, small_uniform.indptr)
        np.testing.assert_array_equal(twice.indices, small_uniform.indices)


class TestTranspose:
    """The cached transpose (CSC view) behind the batched backward."""

    def test_transpose_round_trip_is_identity(self, small_uniform):
        # The cached transpose keeps a back-pointer, so the round trip
        # returns the *same object* — not merely an equal graph.
        assert small_uniform.transpose().transpose() is small_uniform

    def test_transpose_arrays_match_from_edges(self, tiny_graph):
        """transpose() must build exactly the graph from_edges would
        build from the reversed edge list (same row-sorted layout)."""
        reversed_edges = [(int(src), dst) for dst in range(tiny_graph.num_vertices)
                          for src in tiny_graph.neighbors(dst)]
        expected = CSRGraph.from_edges(tiny_graph.num_vertices, reversed_edges)
        t = tiny_graph.transpose()
        np.testing.assert_array_equal(t.indptr, expected.indptr)
        np.testing.assert_array_equal(t.indices, expected.indices)

    def test_degree_invariants(self, small_uniform):
        t = small_uniform.transpose()
        # Total edge count is preserved; the transposed in-degrees are
        # the original out-degrees (occurrence counts in indices).
        assert t.num_edges == small_uniform.num_edges
        out_degs = np.bincount(small_uniform.indices, minlength=small_uniform.num_vertices)
        np.testing.assert_array_equal(t.degrees(), out_degs)
        assert t.degrees().sum() == small_uniform.degrees().sum()

    def test_csc_arrays_permutation_carries_edge_data(self, tiny_graph):
        """csc_arrays' perm maps forward edge slots to transposed slots:
        scattering each forward edge's destination through it must yield
        the transposed indices array."""
        t_indptr, t_indices, perm = tiny_graph.csc_arrays()
        dst = np.repeat(np.arange(tiny_graph.num_vertices), tiny_graph.degrees())
        np.testing.assert_array_equal(dst[perm], t_indices)
        np.testing.assert_array_equal(
            tiny_graph.indices[perm],
            np.repeat(np.arange(tiny_graph.num_vertices), np.diff(t_indptr)),
        )

    def test_transpose_is_cached(self, tiny_graph):
        assert tiny_graph.transpose() is tiny_graph.transpose()

    def test_back_pointer_is_weak(self):
        """``g -> g^T`` is a strong reference and ``g^T -> g`` a weak
        one: dropping ``g`` frees it by refcount (no cycle to collect),
        and a transpose that outlives it rebuilds an equal graph."""
        graph = CSRGraph.from_edges(4, [(0, 1), (1, 2), (3, 0), (3, 2)])
        indptr, indices = graph.indptr.copy(), graph.indices.copy()
        transposed = graph.transpose()
        assert transposed.transpose() is graph
        graph_ref = weakref.ref(graph)
        gc.disable()
        try:
            del graph
            assert graph_ref() is None
        finally:
            gc.enable()
        rebuilt = transposed.transpose()
        np.testing.assert_array_equal(rebuilt.indptr, indptr)
        np.testing.assert_array_equal(rebuilt.indices, indices)
        assert rebuilt.transpose() is transposed

    def test_empty_graph_transpose(self):
        graph = CSRGraph.from_edges(0, [])
        t = graph.transpose()
        assert t.num_vertices == 0 and t.num_edges == 0

    def test_self_loops_survive_transpose(self):
        graph = CSRGraph.from_edges(4, [(0, 0), (1, 2), (3, 3)])
        t = graph.transpose()
        assert 0 in t.neighbors(0) and 3 in t.neighbors(3) and 1 in t.neighbors(2)

    def test_pickling_drops_cached_transpose(self, tiny_graph):
        tiny_graph.transpose()  # populate the cache
        clone = pickle.loads(pickle.dumps(tiny_graph))
        assert clone._transpose is None and clone._csc is None
        # And the clone can rebuild it from scratch.
        assert clone.transpose().num_edges == tiny_graph.num_edges


def _argsort_csc(graph):
    """The comparison-sort CSC construction ``csc_arrays`` replaced: a
    stable sort of the sources keeps each transposed row in forward
    (dst-major) order.  The oracle for the counting transpose."""
    n = graph.num_vertices
    perm = np.argsort(graph.indices, kind="stable")
    dst = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    t_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(graph.indices, minlength=n), out=t_indptr[1:])
    return t_indptr, dst[perm], perm


def _assert_csc_matches_oracle(graph):
    for got, expected in zip(graph.csc_arrays(), _argsort_csc(graph)):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)


@st.composite
def multigraphs(draw):
    """Raw CSR arrays: duplicate edges, unsorted rows, self loops and
    isolated vertices all occur; V = 0 and V = 1 included."""
    n = draw(st.integers(min_value=0, max_value=30))
    degrees = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    indices = draw(st.lists(st.integers(0, max(n - 1, 0)),
                            min_size=sum(degrees), max_size=sum(degrees)))
    indptr = np.concatenate([[0], np.cumsum(degrees, dtype=np.int64)])
    return CSRGraph(indptr, np.array(indices, dtype=np.int64))


class TestCSCArrays:
    """``csc_arrays`` is a counting transpose, bit-identical to the
    stable-argsort construction it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(graph=multigraphs())
    def test_random_multigraphs_match_the_argsort_oracle(self, graph):
        _assert_csc_matches_oracle(graph)

    @pytest.mark.parametrize("indptr, indices", [
        ([0], []),  # V = 0
        ([0, 0], []),  # V = 1, isolated
        ([0, 3], [0, 0, 0]),  # V = 1, a tripled self loop
        # unsorted rows, duplicates, self loops, isolated vertex 3
        ([0, 4, 4, 7, 7, 9], [2, 0, 2, 4, 1, 2, 1, 4, 4]),
    ], ids=["v0", "v1", "v1-self-loops", "multigraph"])
    def test_edge_cases(self, indptr, indices):
        _assert_csc_matches_oracle(CSRGraph(np.array(indptr), np.array(indices)))

    def test_products_twin(self):
        _assert_csc_matches_oracle(load_dataset("products", scale=0.5, seed=0))


class TestTransposeEviction:
    """Backward JIT entries keyed on a graph die with the graph — the
    same weakref-eviction contract the forward cache established."""

    def test_backward_entries_evicted_when_graph_dies(self):
        cache = JitKernelCache()
        graph = uniform_graph(30, avg_degree=3.0, seed=2)
        cache.specialize_backward(graph, KernelSpec(4, "gcn"))
        cache.specialize_backward(graph, KernelSpec(8, "gcn"))
        assert len(cache) == 2
        del graph
        gc.collect()
        assert len(cache) == 0


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=20),
       edges=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60))
def test_from_edges_property(n, edges):
    """Any in-range edge list builds a valid graph with exact edge count."""
    edges = [(d % n, s % n) for d, s in edges]
    graph = CSRGraph.from_edges(n, edges)
    graph.validate()
    assert (graph.num_vertices, graph.num_edges) == (n, len(set(edges)))
    # Every edge is present exactly where expected.
    for dst, src in set(edges):
        assert src in graph.neighbors(dst)
