"""Kernel interfaces and execution statistics.

The value plane runs one aggregation kernel,
:class:`~repro.kernels.basic.BasicKernel` (Alg. 1, forward and
transposed); the paper's other Figure-11 strategies (MKL, DistGNN,
fusion, compression, combined) are priced by the cost model
(:data:`repro.perf.cost_model.VARIANTS`), not run.  Section 4.4's
ordering is a relabel of the graph a kernel is handed
(:func:`repro.graphs.apply_order`), and S2's blocked aggregate-then-
update is :class:`repro.nn.GNNLayer`'s sweep over row blocks.  A kernel
computes numpy arithmetic whose results must match the
:mod:`repro.nn.aggregate` oracle, and reports :class:`KernelStats`
describing the work it did — the structural quantities the time plane
prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

import numpy as np

from ..graphs.csr import CSRGraph

@dataclass
class KernelStats:
    """Work counters accumulated by one kernel invocation."""

    gathers: int = 0  # feature vectors gathered (edges + self)
    flops: float = 0.0
    prefetches: int = 0  # software prefetch hints issued (Alg. 1 line 9)
    tasks: int = 0  # parallel tasks dispatched
    jit_compilations: int = 0  # specialized kernels generated this call
    extra: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "KernelStats") -> None:
        self.gathers += other.gathers
        self.flops += other.flops
        self.prefetches += other.prefetches
        self.tasks += other.tasks
        self.jit_compilations += other.jit_compilations
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


def validate_inputs(graph: CSRGraph, h: np.ndarray) -> None:
    """Common input checks shared by all kernels."""
    if h.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {h.shape}")
    if h.shape[0] != graph.num_vertices:
        raise ValueError(
            f"feature rows {h.shape[0]} != num_vertices {graph.num_vertices}"
        )

