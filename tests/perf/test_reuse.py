"""Unit + property tests for reuse-distance analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import chain_graph, star_graph, uniform_graph
from repro.perf import (
    COLD,
    access_stream,
    reuse_profile,
    stack_distances,
)


def brute_force_distances(stream):
    """Reference LRU stack distance: distinct elements since last access."""
    out = []
    for t, x in enumerate(stream):
        prev = None
        for s in range(t - 1, -1, -1):
            if stream[s] == x:
                prev = s
                break
        if prev is None:
            out.append(COLD)
        else:
            out.append(len(set(stream[prev + 1 : t])))
    return np.array(out, dtype=np.int64)


class TestStackDistances:
    def test_repeat_access_distance_zero(self):
        stream = np.array([3, 3, 3])
        d = stack_distances(stream, 4)
        assert d[0] == COLD
        assert d[1] == 0
        assert d[2] == 0

    def test_abab_pattern(self):
        stream = np.array([0, 1, 0, 1])
        d = stack_distances(stream, 2)
        np.testing.assert_array_equal(d[2:], [1, 1])

    def test_matches_brute_force(self, rng):
        stream = rng.integers(0, 12, size=120)
        fast = stack_distances(stream, 12)
        slow = brute_force_distances(list(stream))
        np.testing.assert_array_equal(fast, slow)

    def test_empty_stream(self):
        assert len(stack_distances(np.empty(0, dtype=np.int64), 5)) == 0


class TestAccessStream:
    def test_includes_self_access(self, chain20):
        stream = access_stream(chain20)
        # Vertex 0 has no neighbors: its slice is just [0].
        assert stream[0] == 0
        # Vertex 1 gathers 0 then itself.
        assert list(stream[1:3]) == [0, 1]

    def test_length_is_edges_plus_vertices(self, small_uniform):
        stream = access_stream(small_uniform)
        assert len(stream) == small_uniform.num_edges + small_uniform.num_vertices

    def test_respects_order(self, chain20):
        order = np.arange(19, -1, -1)
        stream = access_stream(chain20, order)
        assert stream[0] == 18  # vertex 19 gathers 18 first
        assert stream[1] == 19


class TestReuseProfile:
    def test_hit_rate_monotone_in_capacity(self, small_community):
        profile = reuse_profile(small_community)
        rates = [profile.hit_rate(c) for c in (2, 8, 32, 128, 100000)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_infinite_capacity_hits_everything_warm(self, small_community):
        profile = reuse_profile(small_community)
        cold = np.count_nonzero(profile.distances == COLD)
        assert profile.hit_rate(1e18) == pytest.approx(
            1.0 - cold / profile.num_accesses
        )

    def test_zero_capacity_no_hits(self, small_community, star10):
        assert reuse_profile(small_community).hit_rate(0) == 0.0
        # Vertex 1 gathers the hub right after the hub's own self touch:
        # a distance-0 access, which still misses with no capacity.
        assert 0 in reuse_profile(star10).distances
        assert reuse_profile(star10).hit_rate(0) == 0.0

    def test_cold_fraction_counts_distinct_touched(self, chain20):
        profile = reuse_profile(chain20)
        # Every vertex is touched at least once -> 20 cold accesses.
        assert np.count_nonzero(profile.distances == COLD) == 20

    def test_star_hub_reuse(self, star10):
        """Leaves all touch the hub: with capacity >= 2 those re-touches hit."""
        profile = reuse_profile(star10)
        assert profile.hit_rate(3) > 0.3


@settings(max_examples=25, deadline=None)
@given(
    stream=st.lists(st.integers(0, 9), min_size=1, max_size=80),
)
def test_stack_distance_property(stream):
    arr = np.array(stream, dtype=np.int64)
    np.testing.assert_array_equal(
        stack_distances(arr, 10), brute_force_distances(stream)
    )
