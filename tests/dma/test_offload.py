"""Unit + integration tests for the Algorithm-5 DMA offload runner."""

import numpy as np
import pytest

from repro.dma import DmaOffloadRunner, GatherList
from repro.graphs import apply_order, load_dataset, synthetic_features
from repro.kernels import UpdateParams
from repro.nn import aggregate, normalization_factors


@pytest.fixture(scope="module")
def graph():
    return load_dataset("products", scale=0.04, seed=1)


@pytest.fixture(scope="module")
def features(graph):
    return synthetic_features(graph, 40, seed=2)


class TestGatherList:
    def test_row_lengths_include_self(self, graph):
        gather = GatherList.build(graph, "gcn")
        np.testing.assert_array_equal(np.diff(gather.indptr), graph.degrees() + 1)

    def test_self_entry_is_last_with_self_factor(self, graph):
        gather = GatherList.build(graph, "mean")
        _, self_f = normalization_factors(graph, "mean")
        for v in (0, 3, graph.num_vertices - 1):
            end = gather.indptr[v + 1]
            assert gather.indices[end - 1] == v
            assert gather.factors[end - 1] == pytest.approx(self_f[v])


class TestValuePlane:
    @pytest.mark.parametrize("aggregator", ["gcn", "mean"])
    def test_matches_reference(self, graph, features, aggregator):
        runner = DmaOffloadRunner(cache_scale=0.02)
        a, none_, report = runner.run_layer(graph, features, aggregator=aggregator)
        reference = aggregate(graph, features, aggregator)
        np.testing.assert_allclose(a, reference, atol=2e-4)
        assert none_ is None
        assert report.descriptors_issued == graph.num_vertices

    def test_fused_update_matches(self, graph, features):
        rng = np.random.default_rng(3)
        params = UpdateParams(weight=(rng.standard_normal((40, 16)) * 0.2).astype(np.float32),
                              bias=rng.standard_normal(16).astype(np.float32) * 0.1)
        runner = DmaOffloadRunner(cache_scale=0.02)
        h_out, a, report = runner.run_layer(graph, features, params=params)
        reference_a = aggregate(graph, features, "gcn")
        np.testing.assert_allclose(a, reference_a, atol=2e-4)
        np.testing.assert_allclose(h_out, params.apply(reference_a), atol=2e-4)

    def test_custom_order_same_result(self, graph, features):
        """Section 4.4's order is a relabel: row ``i`` of the relabelled
        run is original vertex ``order[i]``'s."""
        rng = np.random.default_rng(5)
        order = rng.permutation(graph.num_vertices)
        runner = DmaOffloadRunner(cache_scale=0.02)
        a, _, _ = runner.run_layer(apply_order(graph, order), features[order])
        np.testing.assert_allclose(
            a, aggregate(graph, features, "gcn")[order], atol=2e-4)

    def test_long_vectors_split_descriptors(self, graph):
        """F=600 > 512-element output buffer: each vertex needs 2
        descriptors (the Section 5.2 software splitting)."""
        wide = synthetic_features(graph, 600, seed=4)
        runner = DmaOffloadRunner(cache_scale=0.02)
        a, _, report = runner.run_layer(graph, wide)
        assert report.descriptors_issued == 2 * graph.num_vertices
        assert report.descriptors_split == graph.num_vertices
        np.testing.assert_allclose(a, aggregate(graph, wide, "gcn"), atol=3e-4)

    def test_weight_shape_validated(self, graph, features):
        bad = UpdateParams(weight=np.zeros((8, 4), np.float32), bias=np.zeros(4, np.float32))
        with pytest.raises(ValueError):
            DmaOffloadRunner(cache_scale=0.02).run_layer(graph, features, params=bad)


class TestTimingPlane:
    def test_core_accesses_tiny_in_agg_only(self, graph, features):
        """Table 5 agg-only: the core only writes descriptors."""
        runner = DmaOffloadRunner(cache_scale=0.02)
        _, _, report = runner.run_layer(graph, features)
        # One descriptor line per vertex (plus noise) — orders of
        # magnitude below the gather traffic.
        gathers = graph.num_edges + graph.num_vertices
        assert report.core_l1_accesses < gathers

    def test_engine_counts_populated(self, graph, features):
        runner = DmaOffloadRunner(cache_scale=0.02)
        _, _, report = runner.run_layer(graph, features)
        assert min(report.engine_dram_lines, report.engine_l3_hits, report.cycles) > 0

    def test_more_tracking_entries_not_slower(self, graph, features):
        slow = DmaOffloadRunner(cache_scale=0.02, tracking_entries=4)
        fast = DmaOffloadRunner(cache_scale=0.02, tracking_entries=64)
        _, _, r_slow = slow.run_layer(graph, features)
        _, _, r_fast = fast.run_layer(graph, features)
        assert r_fast.cycles <= r_slow.cycles

    def test_update_overlap_reported(self, graph, features):
        params = UpdateParams(weight=np.zeros((40, 40), np.float32),
                              bias=np.zeros(40, np.float32))
        runner = DmaOffloadRunner(cache_scale=0.02)
        _, _, report = runner.run_layer(graph, features, params=params)
        assert report.update_cycles > 0
        assert 0.0 <= report.core_wait_fraction <= 1.0
