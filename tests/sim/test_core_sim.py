"""Unit tests for the core-executed trace simulation."""

import numpy as np
import pytest

from repro.graphs import apply_order, load_dataset, power_law_graph
from repro.perf import cascade_lake_12
from repro.sim import CoreAggregationSim


@pytest.fixture(scope="module")
def graph():
    return load_dataset("products", scale=0.04, seed=0)


@pytest.fixture(scope="module")
def agg_report(graph):
    return CoreAggregationSim(cache_scale=0.01).run(graph, 32)


@pytest.fixture(scope="module")
def fused_report(graph):
    return CoreAggregationSim(cache_scale=0.01).run(graph, 32, fused_update_features=32)


class TestAggregationOnly:
    def test_positive_cycles(self, agg_report):
        assert agg_report.cycles > 0 and agg_report.seconds > 0

    def test_access_counts_plausible(self, graph, agg_report):
        gathers = graph.num_edges + graph.num_vertices
        lines_per_row = 2  # 32 fp32 = 128B
        # At least every gather line is issued through L1.
        assert agg_report.l1_accesses >= gathers * lines_per_row

    def test_aggregation_fully_stalled(self, agg_report):
        assert agg_report.memory_stall_fraction == 1.0

    def test_update_cycles_zero_without_fusion(self, agg_report):
        assert agg_report.update_cycles == 0.0


class TestFused:
    def test_update_overlaps(self, agg_report, fused_report):
        # The fused run is barely longer than aggregation alone — the
        # update hides under the memory time (Figure 13's observation).
        assert fused_report.cycles < agg_report.cycles * 1.35
        assert fused_report.update_cycles > 0

    def test_fused_counts_update_accesses(self, agg_report, fused_report):
        assert fused_report.l1_accesses > agg_report.l1_accesses
        assert fused_report.l2_accesses > agg_report.l2_accesses

    def test_stall_lower_when_fused(self, graph, agg_report):
        fused = CoreAggregationSim(cache_scale=0.01).run(
            graph, 32, fused_update_features=128)
        assert fused.memory_stall_fraction <= agg_report.memory_stall_fraction


class TestOutputBufferReuse:
    def test_reuse_cuts_dram_traffic(self):
        """Figure 5c: the reusable per-core buffer drops the a-stream.

        Needs caches that actually hold the buffer between blocks — and
        more than one block per core, or there is nothing to reuse — so
        run a small graph on the 12-core machine with full-size caches.
        """
        small = power_law_graph(800, 6.0, seed=1, name="reuse-twin")
        sim = CoreAggregationSim(cascade_lake_12())
        plain = sim.run(small, 16)
        reused = sim.run(small, 16, reuse_output_buffer=True)
        assert reused.dram_lines < plain.dram_lines
        assert reused.dram_bytes < plain.dram_bytes

    def test_dram_bytes_match_lines(self, agg_report):
        # Every DRAM fill is one whole 64B line; evicted-dirty writebacks
        # are not modeled, so bytes == lines served * 64.
        assert agg_report.dram_bytes >= agg_report.dram_lines * 64


class TestOrderSupport:
    def test_custom_order_changes_nothing_structural(self, graph, agg_report):
        """Section 4.4's order is a relabel of the graph."""
        rng = np.random.default_rng(0)
        order = rng.permutation(graph.num_vertices)
        report = CoreAggregationSim(cache_scale=0.01).run(apply_order(graph, order), 32)
        # Same number of issued lines either way.
        assert report.detail["issued_lines"] == agg_report.detail["issued_lines"]

    def test_summarize_renders(self, agg_report):
        assert "cycles" in agg_report.summarize()
