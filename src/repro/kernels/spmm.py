"""The MKL baseline: SpMM aggregation + GEMM update (Section 6).

The linear aggregators of Table 2 factor as ``a = Â h`` with Â the
ψ-scaled self-loop-augmented adjacency, so MKL's sparse-dense matrix
multiply computes the whole aggregation in one call.  The paper finds
this slightly *slower* than DistGNN (Figure 11: 0.88-0.99x) — SpMM
libraries pay an extra CSR traversal pass and lack the gather-specific
prefetch tuning.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..nn.aggregate import normalized_adjacency
from ..obs import get_metrics, get_tracer, publish_counters
from .base import AggregationKernel, KernelStats, validate_inputs


class SpMMKernel(AggregationKernel):
    """MKL-style aggregation: one sparse-dense matrix product."""

    name = "mkl"

    def aggregate(
        self,
        graph: CSRGraph,
        h: np.ndarray,
        aggregator: str = "gcn",
    ) -> Tuple[np.ndarray, KernelStats]:
        """Aggregate all vertices with one SpMM."""
        validate_inputs(graph, h)
        with get_tracer().span(
            "kernel.mkl",
            aggregator=aggregator,
            vertices=graph.num_vertices,
            edges=graph.num_edges,
            features=int(h.shape[1]),
            workers=1,
        ) as span:
            a_hat = normalized_adjacency(graph, aggregator)
            out = (a_hat @ h).astype(np.float32)
            stats = KernelStats(
                gathers=graph.num_edges + graph.num_vertices,
                flops=2.0 * (graph.num_edges + graph.num_vertices) * h.shape[1],
                tasks=1,
            )
            span.add_counters(stats.as_dict())
        publish_counters(get_metrics(), "kernel.mkl", stats.as_dict(False))
        return out, stats
