"""Unit tests for the address-trace layout."""

import numpy as np

from repro.sim import MemoryLayout, layout_for, vertex_trace


class TestMemoryLayout:
    def test_row_padding_to_lines(self):
        layout = MemoryLayout(num_vertices=10, num_edges=20, feature_len=17)
        assert (layout.row_bytes, layout.lines_per_row) == (128, 2)  # 68B: two lines

    def test_exact_line_multiple_unpadded(self):
        layout = MemoryLayout(num_vertices=10, num_edges=20, feature_len=16)
        assert layout.row_bytes == 64

    def test_regions_do_not_overlap(self):
        layout = MemoryLayout(num_vertices=100, num_edges=500, feature_len=32)
        assert layout.h_base < layout.idx_base < layout.factor_base < layout.a_base
        assert layout.idx_base == layout.h_base + 100 * layout.row_bytes
        assert layout.end > layout.a_base

    def test_feature_lines(self):
        layout = MemoryLayout(num_vertices=4, num_edges=0, feature_len=32)
        # row 1 starts at 128B and spans 2 lines
        assert layout.feature_lines(1) == [128, 192]

    def test_index_lines_cover_slice(self):
        layout = MemoryLayout(num_vertices=4, num_edges=100, feature_len=16)
        # indices 0..15 pack into one 64B line (4B each).
        assert len(layout.index_lines(0, 16)) == 1
        assert len(layout.index_lines(0, 17)) == 2

    def test_empty_slice(self):
        layout = MemoryLayout(num_vertices=4, num_edges=10, feature_len=16)
        assert layout.index_lines(3, 3) == [] == layout.factor_lines(5, 5)


class TestVertexTrace:
    def test_counts(self, tiny_graph):
        layout = layout_for(tiny_graph, 16)
        trace = vertex_trace(tiny_graph, layout, 3)
        # Vertex 3 gathers {0,1,2} plus itself: 4 rows of 1 line each.
        assert (len(trace.gather_lines), len(trace.output_lines)) == (4, 1)

    def test_isolated_vertex_still_touches_self(self, tiny_graph):
        layout = layout_for(tiny_graph, 16)
        trace = vertex_trace(tiny_graph, layout, 4)
        assert (len(trace.gather_lines), trace.index_lines) == (1, ())

    def test_gather_lines_match_neighbors(self, tiny_graph):
        layout = layout_for(tiny_graph, 16)
        trace = vertex_trace(tiny_graph, layout, 0)
        assert list(trace.gather_lines) == (
            layout.feature_lines(1) + layout.feature_lines(2) + layout.feature_lines(0))

    def test_index_factor_lines_aligned_rows_line_spaced(self, tiny_graph):
        layout = layout_for(tiny_graph, 17)  # padded rows
        for v in range(tiny_graph.num_vertices):
            trace = vertex_trace(tiny_graph, layout, v)
            for addr in (*trace.index_lines, *trace.factor_lines):
                assert addr % 64 == 0
            # Feature/output rows are row-granular: lines of one row are
            # spaced exactly one cache line apart.
            for i in range(0, len(trace.gather_lines), layout.lines_per_row):
                row = trace.gather_lines[i : i + layout.lines_per_row]
                assert [b - a for a, b in zip(row, row[1:])] == [64] * (len(row) - 1)


class TestCompulsoryFootprint:
    """Distinct lines across a full pass = the working set.

    This is the identity the attribution reconciliation relies on: with
    caches larger than the working set, the simulator's DRAM traffic is
    exactly the distinct-line footprint below.
    """

    def test_distinct_lines_equal_working_set(self, tiny_graph):
        layout = layout_for(tiny_graph, 16)
        order = np.arange(tiny_graph.num_vertices)
        gather, output, index, factor = set(), set(), set(), set()
        for trace in (vertex_trace(tiny_graph, layout, int(v)) for v in order):
            gather.update(trace.gather_lines)
            output.update(trace.output_lines)
            index.update(trace.index_lines)
            factor.update(trace.factor_lines)
        n = tiny_graph.num_vertices
        assert len(gather) == n * layout.lines_per_row
        assert len(output) == n * layout.lines_per_row
        # Index/factor arrays: 4B per edge, packed into whole lines.
        expected_idx = len({a // 64 for a in range(
            layout.idx_base, layout.idx_base + 4 * tiny_graph.num_edges)})
        assert len(index) <= expected_idx
        assert len(factor) <= expected_idx

    def test_footprint_invariant_under_order(self, tiny_graph):
        layout = layout_for(tiny_graph, 16)
        forward = np.arange(tiny_graph.num_vertices)
        backward = forward[::-1]

        def lines(order):
            seen = set()
            for trace in (vertex_trace(tiny_graph, layout, int(v)) for v in order):
                seen.update(trace.gather_lines)
                seen.update(trace.output_lines)
                seen.update(trace.index_lines)
                seen.update(trace.factor_lines)
            return seen

        assert lines(forward) == lines(backward)

    def test_input_and_output_rows_never_share_lines(self, tiny_graph):
        """h and a rows must not alias — a hit on one is never the other."""
        layout = layout_for(tiny_graph, 16)
        gather, output = set(), set()
        for v in range(tiny_graph.num_vertices):
            trace = vertex_trace(tiny_graph, layout, v)
            gather.update(a // 64 for a in trace.gather_lines)
            output.update(a // 64 for a in trace.output_lines)
        assert not gather & output
