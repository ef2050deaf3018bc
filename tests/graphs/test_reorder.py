"""Unit + property tests for vertex processing orders (Section 4.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    CSRGraph,
    apply_order,
    degree_sorted_order,
    is_permutation,
    locality_order,
    natural_order,
    randomized_order,
    uniform_graph,
)
from repro.perf.reuse import reuse_profile


class TestBasicOrders:
    def test_natural_is_identity(self, tiny_graph):
        np.testing.assert_array_equal(
            natural_order(tiny_graph), np.arange(tiny_graph.num_vertices)
        )

    def test_randomized_is_permutation(self, small_uniform):
        order = randomized_order(small_uniform, seed=3)
        assert is_permutation(order, small_uniform.num_vertices)

    def test_randomized_deterministic_per_seed(self, small_uniform):
        a = randomized_order(small_uniform, seed=3)
        b = randomized_order(small_uniform, seed=3)
        c = randomized_order(small_uniform, seed=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_degree_sorted_descending(self, small_uniform):
        order = degree_sorted_order(small_uniform)
        degs = small_uniform.degrees()[order]
        assert all(degs[i] >= degs[i + 1] for i in range(len(degs) - 1))


class TestLocalityOrder:
    def test_is_permutation(self, small_community):
        order = locality_order(small_community)
        assert is_permutation(order, small_community.num_vertices)

    def test_star_groups_leaves_with_hub(self, star10):
        """Every leaf's only (and max-degree) neighbor is the hub, so all
        leaves join L[hub] and appear contiguously (Algorithm 3)."""
        order = locality_order(star10)
        # The hub has degree 10; leaves have degree 1 -> the hub's own
        # owner is itself; leaves' owner is the hub.  All 11 vertices end
        # up in one group, emitted contiguously.
        assert is_permutation(order, 11)

    def test_isolated_vertices_own_themselves(self):
        graph = CSRGraph.from_edges(4, [(0, 1)])
        order = locality_order(graph)
        assert is_permutation(order, 4)

    def test_groups_are_contiguous(self, small_community):
        """All vertices owned by the same hub appear consecutively in M."""
        owners = self._reference_owner(small_community)[
            locality_order(small_community)]
        # Each owner id appears in exactly one contiguous run.
        runs = owners[np.r_[True, owners[1:] != owners[:-1]]]
        assert len(runs) == len(set(runs.tolist())), "owner group split apart"

    def test_improves_reuse_on_community_graph(self, small_community):
        capacity = 24.0
        natural = reuse_profile(small_community, natural_order(small_community))
        localized = reuse_profile(small_community, locality_order(small_community))
        assert localized.hit_rate(capacity) >= natural.hit_rate(capacity)

    def test_linear_time_complexity_smoke(self):
        """Large-ish graph completes quickly (O(|V| + |E|))."""
        graph = uniform_graph(5000, 8.0, seed=0)
        order = locality_order(graph)
        assert is_permutation(order, 5000)

    @staticmethod
    def _reference_owner(graph):
        """Algorithm 3's owner rule, per vertex: the max-degree neighbor
        (smallest id on ties) owns v when it beats v's own degree (same
        tie-break)."""
        degs = graph.degrees()
        owner = np.arange(graph.num_vertices, dtype=np.int64)
        for v in range(graph.num_vertices):
            row = graph.neighbors(v)
            if len(row) == 0:
                continue
            best = row[np.argmax(degs[row] * (graph.num_vertices + 1) - row)]
            if (degs[best], -best) > (degs[v], -v):
                owner[v] = best
        return owner

    def _reference_owner_loop(self, graph):
        """The order the owner rule gives, which the vectorized
        implementation must match exactly."""
        return np.argsort(self._reference_owner(graph), kind="stable")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vectorized_matches_reference_loop(self, seed):
        graph = uniform_graph(200, avg_degree=5.0, seed=seed)
        np.testing.assert_array_equal(
            locality_order(graph), self._reference_owner_loop(graph)
        )

    def test_vectorized_matches_reference_loop_on_shapes(
        self, tiny_graph, star10, chain20, small_community
    ):
        for graph in (tiny_graph, star10, chain20, small_community):
            np.testing.assert_array_equal(
                locality_order(graph), self._reference_owner_loop(graph)
            )

    def test_empty_graph(self):
        graph = CSRGraph.from_edges(0, [])
        assert len(locality_order(graph)) == 0


class TestApplyOrder:
    def test_preserves_counts(self, small_uniform):
        order = randomized_order(small_uniform, seed=1)
        relabeled = apply_order(small_uniform, order)
        assert relabeled.num_vertices == small_uniform.num_vertices
        assert relabeled.num_edges == small_uniform.num_edges

    def test_preserves_structure(self, tiny_graph):
        order = np.array([4, 3, 2, 1, 0])
        relabeled = apply_order(tiny_graph, order)
        # order[i] becomes vertex i: old vertex 3 (with neighbors 0,1,2)
        # becomes new vertex 1 with neighbors {4,3,2}.
        assert sorted(relabeled.neighbors(1).tolist()) == [2, 3, 4]

    def test_identity_order_is_noop(self, tiny_graph):
        relabeled = apply_order(tiny_graph, natural_order(tiny_graph))
        np.testing.assert_array_equal(relabeled.indptr, tiny_graph.indptr)
        np.testing.assert_array_equal(relabeled.indices, tiny_graph.indices)

    def test_rejects_non_permutation(self, tiny_graph):
        with pytest.raises(ValueError):
            apply_order(tiny_graph, np.array([0, 0, 1, 2, 3]))

    def test_rejects_out_of_range(self, tiny_graph):
        with pytest.raises(ValueError):
            apply_order(tiny_graph, np.array([0, 1, 2, 3, 5]))
        with pytest.raises(ValueError):
            apply_order(tiny_graph, np.array([-1, 0, 1, 2, 3]))

    def test_rejects_wrong_length(self, tiny_graph):
        with pytest.raises(ValueError):
            apply_order(tiny_graph, np.array([0, 1, 2]))

    def test_degree_multiset_preserved(self, small_community):
        order = locality_order(small_community)
        relabeled = apply_order(small_community, order)
        assert sorted(relabeled.degrees()) == sorted(small_community.degrees())


class TestIsPermutation:
    def test_valid(self):
        assert is_permutation(np.array([2, 0, 1]), 3)

    def test_wrong_length(self):
        assert not is_permutation(np.array([0, 1]), 3)

    def test_duplicate(self):
        assert not is_permutation(np.array([0, 0, 2]), 3)

    def test_out_of_range(self):
        assert not is_permutation(np.array([0, 1, 3]), 3)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_locality_order_always_permutation(n, seed):
    graph = uniform_graph(n, avg_degree=3.0, seed=seed)
    assert is_permutation(locality_order(graph), n)
