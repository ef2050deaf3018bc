#!/usr/bin/env python
"""Full-batch GNN training with Graphite's software techniques.

Reproduces the paper's training story end-to-end on a twin graph:

* trains a 3-layer GraphSAGE with dropout and profiles the hidden-
  feature sparsity that motivates compression (Section 2.2),
* computes the Section 4.4 locality order and shows the gather hit-rate
  improvement it buys on this graph,
* prices a training epoch for every software variant with the cost
  model and prints the Figure-11b-style speedup column.

Run:  python examples/full_batch_training.py
"""

import numpy as np

from repro.graphs import (
    graph_stats,
    input_feature_size,
    load_dataset,
    synthetic_features,
)
from repro.kernels import BasicKernel
from repro.nn import Adam, Trainer, build_model
from repro.perf import CostModel


def main() -> None:
    graph = load_dataset("products", scale=0.25, seed=0)
    print("graph:", graph_stats(graph).as_row())

    # ------------------------------------------------------------------
    # Section 2.2: measure how sparse hidden features actually get.
    # ------------------------------------------------------------------
    f_in = 48
    features = synthetic_features(graph, f_in, seed=0)
    labels = np.random.default_rng(0).integers(0, 8, graph.num_vertices)
    model = build_model("sage", f_in, 64, 8, num_layers=3, dropout=0.5, seed=0)
    trainer = Trainer(
        model, Adam(model, lr=0.01), profile_sparsity=True,
        aggregation_kernel=BasicKernel(),
    )
    trainer.fit(graph, features, labels, epochs=8)
    profile = trainer.history.sparsity
    print("\nhidden-feature sparsity during training (Section 2.2):")
    print(profile.summary())
    print("-> this is the sparsity the Section 4.3 compression exploits")

    # ------------------------------------------------------------------
    # Section 4.4: how much locality does Algorithm 3 create here?
    # ------------------------------------------------------------------
    cost = CostModel(graph)
    natural = cost.hit_rate("natural")
    localized = cost.hit_rate("locality")
    print(f"\ngather hit rate @ scaled cache capacity "
          f"({cost.capacity_vectors:.0f} vectors):")
    print(f"  natural order : {natural:6.1%}")
    print(f"  Algorithm 3   : {localized:6.1%}")

    # ------------------------------------------------------------------
    # Figure 11b: price a training epoch for each software variant.
    # ------------------------------------------------------------------
    f_input = input_feature_size("products", 1.0)
    print("\nmodeled training-epoch speedup over DistGNN @50% sparsity:")
    for variant in ("mkl", "basic", "fusion", "compression", "combined",
                    "c-locality"):
        speedup = cost.speedup(
            variant, f_input, 256, training=True, sparsity=0.5
        )
        print(f"  {variant:<12} {speedup:5.2f}x")
    print("\n(the paper's Figure 11b reports 1.58x for combined and 2.57x "
          "for combined+locality on the full-size products graph)")


if __name__ == "__main__":
    main()
