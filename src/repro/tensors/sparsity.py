"""Feature-sparsity measurement — Section 2.2 of the paper.

Hidden-layer features pick up zeros from two sources: ReLU (40-90%
sparsity) and dropout (a further 50% by default).  The paper profiles a
three-layer GraphSAGE on ogbn-products and finds layer-2 inputs over 60%
sparse after ReLU, over 80% after dropout, and layer-3 inputs over 90%.

These helpers quantify sparsity and track how it evolves through a
training run; ``graphs.synthetic_features(..., sparsity=)`` injects it
for controlled experiments (Section 6: "we randomly set the features to
zeros with predefined rates").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np


def sparsity(matrix: np.ndarray) -> float:
    """Fraction of exactly-zero elements."""
    if matrix.size == 0:
        return 0.0
    return float(np.count_nonzero(matrix == 0) / matrix.size)


@dataclass
class SparsityProfile:
    """Per-layer sparsity observations across a training run.

    Reproduces the Section 2.2 profiling experiment: record the sparsity of
    each hidden layer's *input* features every epoch.
    """

    per_layer: Dict[int, List[float]] = field(default_factory=dict)

    def record(self, layer: int, matrix: np.ndarray) -> None:
        self.add(layer, sparsity(matrix))

    def add(self, layer: int, value: float) -> None:
        """Append one already-computed sparsity observation."""
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"sparsity must be in [0, 1], got {value}")
        self.per_layer.setdefault(layer, []).append(value)

    def mean(self, layer: int) -> float:
        values = self.per_layer.get(layer, [])
        return float(np.mean(values)) if values else 0.0

    def last(self, layer: int) -> float:
        values = self.per_layer.get(layer, [])
        return values[-1] if values else 0.0

    def layers(self) -> List[int]:
        return sorted(self.per_layer)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable export (run reports, dashboards).

        Layer keys become strings (JSON object keys); the full per-epoch
        trajectory is kept alongside the mean/last summaries.
        """
        return {
            "per_layer": {
                str(layer): [float(v) for v in values]
                for layer, values in sorted(self.per_layer.items())
            },
            "mean": {str(layer): self.mean(layer) for layer in self.layers()},
            "last": {str(layer): self.last(layer) for layer in self.layers()},
        }

    def summary(self) -> str:
        lines = ["layer  mean-sparsity  last-epoch"]
        for layer in self.layers():
            lines.append(
                f"{layer:>5}  {self.mean(layer):>12.1%}  {self.last(layer):>9.1%}"
            )
        return "\n".join(lines)
