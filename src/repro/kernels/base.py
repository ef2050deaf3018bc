"""Kernel interfaces and execution statistics.

Every execution strategy in the paper's Figure 11 is a *kernel*: it
computes the same aggregation (and optionally the fused update) while
differing in iteration structure, blocking and compression (Section
4.4's ordering is a relabel of the graph they are handed,
:func:`repro.graphs.apply_order`).  Kernels run on the value plane
(numpy arithmetic, results must match the :mod:`repro.nn.aggregate`
oracle) and report :class:`KernelStats` describing the work they did —
the structural quantities the time plane prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph

@dataclass
class KernelStats:
    """Work counters accumulated by one kernel invocation."""

    gathers: int = 0  # feature vectors gathered (edges + self)
    flops: float = 0.0
    prefetches: int = 0  # software prefetch hints issued (Alg. 1 line 9)
    tasks: int = 0  # parallel tasks dispatched
    blocks: int = 0  # fused blocks processed (Alg. 2 j-loop iterations)
    jit_compilations: int = 0  # specialized kernels generated this call
    decompressed_rows: int = 0  # rows run through mask expand
    compressed_rows: int = 0  # rows run through mask collapse
    peak_buffer_bytes: int = 0  # reusable a-block buffer high-water mark
    dram_bytes_saved: float = 0.0  # traffic avoided vs. dense transfer
    extra: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "KernelStats") -> None:
        self.gathers += other.gathers
        self.flops += other.flops
        self.prefetches += other.prefetches
        self.tasks += other.tasks
        self.blocks += other.blocks
        self.jit_compilations += other.jit_compilations
        self.decompressed_rows += other.decompressed_rows
        self.compressed_rows += other.compressed_rows
        self.peak_buffer_bytes = max(self.peak_buffer_bytes, other.peak_buffer_bytes)
        self.dram_bytes_saved += other.dram_bytes_saved
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0.0) + value

    def as_dict(self, include_extra: bool = True) -> Dict[str, float]:
        """Flat numeric view for telemetry (spans, metrics, reports).

        ``extra`` entries are namespaced as ``extra.<key>`` so they can
        never shadow a declared counter.
        """
        out: Dict[str, float] = {}
        for name in _STAT_FIELDS:
            out[name] = float(getattr(self, name))
        if include_extra:
            for key, value in self.extra.items():
                out[f"extra.{key}"] = float(value)
        return out


#: Declared counter names, resolved once — ``dataclasses.fields`` walks
#: descriptors on every call and ``as_dict`` runs twice per kernel call.
_STAT_FIELDS = tuple(
    spec.name for spec in fields(KernelStats) if spec.name != "extra"
)


@dataclass(frozen=True)
class UpdateParams:
    """The FC+ReLU update of Table 2: ``h_out = act(W a + b)``."""

    weight: np.ndarray  # (f_in, f_out)
    bias: np.ndarray  # (f_out,)
    activation: bool = True

    def __post_init__(self) -> None:
        if self.weight.ndim != 2:
            raise ValueError("weight must be 2-D")
        if self.bias.shape != (self.weight.shape[1],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match weight "
                f"columns {self.weight.shape[1]}"
            )

    def apply(self, a_block: np.ndarray) -> np.ndarray:
        out = a_block @ self.weight + self.bias
        if self.activation:
            np.maximum(out, 0.0, out=out)
        # fp32 in the normal pipeline; preserved (e.g. fp64) when a
        # gradcheck drives the whole stack at higher precision.
        return out.astype(np.result_type(a_block.dtype, np.float32), copy=False)


class AggregationKernel:
    """Base class: an aggregation-only execution strategy."""

    name = "abstract"

    def aggregate(
        self, graph: CSRGraph, h: np.ndarray, aggregator: str = "gcn"
    ) -> Tuple[np.ndarray, KernelStats]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class FusedLayerKernel:
    """Base class: a fused aggregation+update execution strategy."""

    name = "abstract-fused"

    def run_layer(
        self,
        graph: CSRGraph,
        h: np.ndarray,
        params: UpdateParams,
        aggregator: str = "gcn",
        keep_aggregation: bool = False,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], KernelStats]:
        """Compute one fused layer.

        Args:
            keep_aggregation: training mode — retain the full ``a`` matrix
                for backward (Figure 5b); inference discards each block
                after its update (Figure 5c).

        Returns:
            (h_out, a_or_None, stats).
        """
        raise NotImplementedError


def validate_inputs(graph: CSRGraph, h: np.ndarray) -> None:
    """Common input checks shared by all kernels."""
    if h.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {h.shape}")
    if h.shape[0] != graph.num_vertices:
        raise ValueError(
            f"feature rows {h.shape[0]} != num_vertices {graph.num_vertices}"
        )

