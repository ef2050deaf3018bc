"""Unit tests for the neighborhood sampler (Eq. 3 / Section 3)."""

import numpy as np
import pytest

from repro.gpu import (
    EpochSamplingStats, iterate_minibatches, sample_blocks,
    sample_neighbors,
)
from repro.graphs import load_dataset, star_graph


@pytest.fixture(scope="module")
def graph():
    return load_dataset("products", scale=0.05)


class TestSampleNeighbors:
    def test_fanout_caps_neighborhood(self, graph, rng):
        big = int(np.argmax(graph.degrees()))
        dst, src = sample_neighbors(graph, np.array([big]), fanout=5, rng=rng)
        # 5 sampled + the self edge.
        assert len(dst) == 6

    def test_small_neighborhoods_taken_whole(self, rng):
        graph = star_graph(3)
        dst, src = sample_neighbors(graph, np.array([1]), fanout=10, rng=rng)
        assert set(src.tolist()) == {0, 1}  # hub + self

    def test_self_edge_always_included(self, graph, rng):
        dst, src = sample_neighbors(graph, np.array([7]), fanout=3, rng=rng)
        assert 7 in src[dst == 7]

    def test_sampled_without_replacement(self, graph, rng):
        big = int(np.argmax(graph.degrees()))
        _, src = sample_neighbors(graph, np.array([big]), fanout=8, rng=rng)
        assert len(set(src.tolist())) == len(src)

    def test_samples_are_real_neighbors(self, graph, rng):
        dst, src = sample_neighbors(graph, np.array([3]), fanout=4, rng=rng)
        neighbors = set(graph.neighbors(3).tolist()) | {3}
        assert set(src.tolist()) <= neighbors

    def test_invalid_fanout(self, graph, rng):
        with pytest.raises(ValueError):
            sample_neighbors(graph, np.array([0]), 0, rng)

    def test_empty_seed_set(self, graph, rng):
        dst, src = sample_neighbors(graph, np.array([], dtype=np.int64), 4, rng)
        assert len(dst) == 0


class TestSampleBlocks:
    def test_block_count_matches_fanouts(self, graph, rng):
        batch = sample_blocks(graph, np.array([0, 1, 2]), (5, 5, 5), rng)
        assert len(batch.blocks) == 3

    def test_frontier_grows_inward(self, graph, rng):
        batch = sample_blocks(graph, np.arange(8), (10, 10), rng)
        inner, outer = batch.blocks
        # The input-side frontier covers at least the output seeds.
        assert len(inner.src_vertices) >= len(outer.dst_vertices)

    def test_frontiers_deduplicated(self, graph, rng):
        batch = sample_blocks(graph, np.arange(16), (10, 10), rng)
        for block in batch.blocks:
            assert len(np.unique(block.src_vertices)) == len(block.src_vertices)

    def test_input_vertices_property(self, graph, rng):
        batch = sample_blocks(graph, np.arange(4), (5, 5), rng)
        np.testing.assert_array_equal(batch.input_vertices, batch.blocks[0].src_vertices)

    def test_total_edges(self, graph, rng):
        batch = sample_blocks(graph, np.arange(4), (5,), rng)
        assert batch.total_sampled_edges == batch.blocks[0].num_edges


class TestEpochIteration:
    def test_epoch_covers_all_vertices(self, graph):
        seen = []
        for batch in iterate_minibatches(graph, 64, (5, 5)):
            seen.extend(batch.seed_vertices.tolist())
        assert sorted(seen) == list(range(graph.num_vertices))

    def test_batch_size_respected(self, graph):
        batches = list(iterate_minibatches(graph, 50, (5,)))
        assert all(len(b.seed_vertices) <= 50 for b in batches)

    def test_invalid_batch_size(self, graph):
        with pytest.raises(ValueError):
            list(iterate_minibatches(graph, 0, (5,)))

    def test_epoch_stats(self, graph):
        stats = EpochSamplingStats.collect(graph, 64, (5, 5))
        assert stats.num_batches == (graph.num_vertices + 63) // 64
        assert stats.sampled_edges > 0 and stats.input_vertices > 0

    def test_larger_batches_sample_fewer_edges_total(self, graph):
        """Frontier dedup: bigger batches share sampled neighbors — the
        Figure 2 effect."""
        small = EpochSamplingStats.collect(graph, 16, (10, 10))
        large = EpochSamplingStats.collect(graph, 128, (10, 10))
        assert large.sampled_edges < small.sampled_edges
