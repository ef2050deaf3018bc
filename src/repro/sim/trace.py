"""Address-trace generation for the trace-driven simulation.

Lays the workload's arrays out in a flat byte address space and produces,
per vertex, the cache-line addresses its aggregation touches: index
lines, gathered feature lines, factor lines, and output lines.  The
same layout feeds both the core-executed and the DMA-executed runs so
their access counts are directly comparable (Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..graphs.csr import CSRGraph

LINE = 64


@dataclass(frozen=True)
class MemoryLayout:
    """Byte-address map of one GNN layer's working set.

    Feature rows are padded to whole cache lines (the descriptor's ``S``
    field — Figure 9a shows the per-row padding).
    """

    num_vertices: int
    num_edges: int
    feature_len: int
    h_base: int = 0
    value_bytes: int = 4

    @property
    def row_bytes(self) -> int:
        """Padded feature-row size (the descriptor's S field)."""
        raw = self.feature_len * self.value_bytes
        return ((raw + LINE - 1) // LINE) * LINE

    @property
    def lines_per_row(self) -> int:
        return self.row_bytes // LINE

    @property
    def idx_base(self) -> int:
        return self.h_base + self.num_vertices * self.row_bytes

    @property
    def factor_base(self) -> int:
        return self.idx_base + self.num_edges * 4

    @property
    def a_base(self) -> int:
        return self.factor_base + self.num_edges * 4

    @property
    def end(self) -> int:
        return self.a_base + self.num_vertices * self.row_bytes

    # ------------------------------------------------------------------
    def feature_lines(self, vertex: int) -> List[int]:
        """Line addresses of one feature row."""
        base = self.h_base + vertex * self.row_bytes
        return [base + i * LINE for i in range(self.lines_per_row)]

    def output_lines(self, vertex: int) -> List[int]:
        base = self.a_base + vertex * self.row_bytes
        return [base + i * LINE for i in range(self.lines_per_row)]

    def index_lines(self, edge_start: int, edge_end: int) -> List[int]:
        """Line addresses covering indices[edge_start:edge_end] (4B each)."""
        if edge_end <= edge_start:
            return []
        first = (self.idx_base + edge_start * 4) // LINE
        last = (self.idx_base + (edge_end - 1) * 4) // LINE
        return [line * LINE for line in range(first, last + 1)]

    def factor_lines(self, edge_start: int, edge_end: int) -> List[int]:
        if edge_end <= edge_start:
            return []
        first = (self.factor_base + edge_start * 4) // LINE
        last = (self.factor_base + (edge_end - 1) * 4) // LINE
        return [line * LINE for line in range(first, last + 1)]


@dataclass(frozen=True)
class VertexTrace:
    """All line addresses one vertex's aggregation touches."""

    vertex: int
    index_lines: Tuple[int, ...]
    factor_lines: Tuple[int, ...]
    gather_lines: Tuple[int, ...]
    output_lines: Tuple[int, ...]


def vertex_trace(graph: CSRGraph, layout: MemoryLayout, vertex: int) -> VertexTrace:
    """Build the aggregation trace of one vertex (Figure 9's data)."""
    start, end = int(graph.indptr[vertex]), int(graph.indptr[vertex + 1])
    gather: List[int] = []
    for u in graph.indices[start:end]:
        gather.extend(layout.feature_lines(int(u)))
    gather.extend(layout.feature_lines(vertex))  # the self contribution
    return VertexTrace(
        vertex=vertex,
        index_lines=tuple(layout.index_lines(start, end)),
        factor_lines=tuple(layout.factor_lines(start, end)),
        gather_lines=tuple(gather),
        output_lines=tuple(layout.output_lines(vertex)),
    )


def layout_for(graph: CSRGraph, feature_len: int) -> MemoryLayout:
    return MemoryLayout(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        feature_len=feature_len,
    )
