"""Scaled synthetic twins of the paper's Table 3 datasets.

The paper evaluates on four graphs too large to redistribute or to simulate
in Python.  Each twin preserves the *shape* properties the evaluation
depends on, at a configurable scale:

* mean degree (drives the aggregation/update time ratio — Fig. 13),
* hub skew and community structure (drive the locality optimization's
  benefit — Fig. 15; random graphs without neighbor sharing would starve
  Algorithm 3 of reuse to exploit),
* source-ordering quality: wikipedia and twitter "possess better-than-
  average locality already, possibly from pre-processing" (Section 7.2.4),
  reproduced by keeping their communities contiguous in vertex-id order,
* relative feature widths (Table 3's F_input; hidden width 256).

Twins are deterministic given the scale and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .csr import CSRGraph
from .generators import community_graph

#: The paper's hidden feature length (Section 6), scaled with the graphs.
PAPER_HIDDEN_FEATURES = 256


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one Table-3 twin."""

    name: str
    paper_vertices: float  # millions, for documentation / cache scaling
    paper_edges: float  # millions
    mean_degree: float
    input_features: int
    base_vertices: int  # twin size at scale=1.0
    community_size: int
    within_fraction: float
    hub_exponent: float
    degree_exponent: float
    pre_localized: bool  # wikipedia/twitter ship with locality baked in
    scatter_fraction: float = 1.0  # id shuffle when NOT pre-localized


SPECS: Dict[str, DatasetSpec] = {
    # products: high mean degree (50.5), very high variance, strong
    # communities (co-purchase clusters) -> the biggest locality winner.
    "products": DatasetSpec(
        name="products",
        paper_vertices=2.45,
        paper_edges=124.0,
        mean_degree=50.5,
        input_features=100,
        base_vertices=4096,
        community_size=48,
        within_fraction=0.92,
        hub_exponent=1.8,
        degree_exponent=2.8,
        pre_localized=False,
    ),
    # wikipedia: low mean degree (12.6); its source ordering already embeds
    # locality (Fig. 15: combined beats randomized without reordering).
    "wikipedia": DatasetSpec(
        name="wikipedia",
        paper_vertices=3.57,
        paper_edges=45.0,
        mean_degree=12.6,
        input_features=128,
        base_vertices=6144,
        community_size=32,
        within_fraction=0.75,
        hub_exponent=2.3,
        degree_exponent=2.3,
        pre_localized=True,
        scatter_fraction=0.35,
    ),
    # papers: mean degree 14.5, mild hubs, sprawling communities much
    # larger than cache -> locality helps least (Fig. 11b: 1.83 vs
    # products 2.57).
    "papers": DatasetSpec(
        name="papers",
        paper_vertices=111.0,
        paper_edges=1620.0,
        mean_degree=14.5,
        input_features=256,
        base_vertices=12288,
        community_size=80,
        within_fraction=0.60,
        hub_exponent=2.4,
        degree_exponent=2.4,
        pre_localized=False,
    ),
    # twitter: mean degree 23.8 with extreme max degree (3M in the paper)
    # -> heaviest hub skew; pre-localized source ordering.
    "twitter": DatasetSpec(
        name="twitter",
        paper_vertices=61.6,
        paper_edges=1470.0,
        mean_degree=23.8,
        input_features=256,
        base_vertices=10240,
        community_size=40,
        within_fraction=0.70,
        hub_exponent=1.55,
        degree_exponent=1.8,
        pre_localized=True,
        scatter_fraction=0.45,
    ),
}

DATASET_NAMES = tuple(SPECS)


def load_dataset(name: str, scale: float = 1.0, seed: int = 0) -> CSRGraph:
    """Build the twin of a Table-3 graph.

    Args:
        name: one of ``products``, ``wikipedia``, ``papers``, ``twitter``.
        scale: vertex-count multiplier relative to the default twin size
            (> 0; the twin has at least 128 vertices).
        seed: generator seed.

    Returns:
        A :class:`CSRGraph` named after the dataset.
    """
    if name not in SPECS:
        raise KeyError(f"unknown dataset {name!r}; choose from {DATASET_NAMES}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    spec = SPECS[name]
    n = max(128, int(spec.base_vertices * scale))
    return community_graph(
        num_vertices=n,
        avg_degree=spec.mean_degree,
        community_size=max(8, int(spec.community_size * min(1.0, scale * 2))),
        within_fraction=spec.within_fraction,
        hub_exponent=spec.hub_exponent,
        degree_exponent=spec.degree_exponent,
        scatter_ids=True,
        scatter_fraction=spec.scatter_fraction if spec.pre_localized else 1.0,
        seed=seed,
        name=spec.name,
    )


def input_feature_size(name: str, scale: float = 1.0) -> int:
    """F_input for the twin; scaled with a floor of 16."""
    return max(16, int(SPECS[name].input_features * min(1.0, max(scale, 0.25))))


def synthetic_features(
    graph: CSRGraph, num_features: int, seed: int = 0, sparsity: float = 0.0
) -> np.ndarray:
    """Random float32 features, optionally with injected zero fraction.

    The paper populates input features with synthetic values and, when
    evaluating compression, "randomly set[s] the features to zeros with
    predefined rates" (Section 6).
    """
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((graph.num_vertices, num_features)).astype(np.float32)
    if sparsity > 0.0:
        mask = rng.random(h.shape) < sparsity
        h[mask] = 0.0
    return h

