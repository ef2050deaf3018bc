#!/usr/bin/env python
"""Quickstart: load a dataset twin, train a GCN, run optimized inference.

Covers the three things a new user does first:
1. build/load a graph and features,
2. train a full-batch GCN (the paper's headline workload — no sampling),
3. run optimized inference (``model.predict``: the Graphite kernel for
   every aggregation, each layer's update as a sweep over row blocks)
   and check it against the plain ``nn/aggregate`` oracle.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.graphs import graph_stats, load_dataset, synthetic_features
from repro.kernels import BasicKernel
from repro.nn import Adam, Trainer, aggregate, build_model, train_val_split


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A scaled twin of ogbn-products (Table 3 of the paper).
    # ------------------------------------------------------------------
    graph = load_dataset("products", scale=0.25, seed=0)
    print("graph:", graph_stats(graph).as_row())

    num_features, hidden, num_classes = 64, 64, 8
    features = synthetic_features(graph, num_features, seed=0)
    rng = np.random.default_rng(0)
    labels = rng.integers(0, num_classes, graph.num_vertices)

    # ------------------------------------------------------------------
    # 2. Full-batch training: every epoch touches every vertex.
    # ------------------------------------------------------------------
    model = build_model(
        "gcn", num_features, hidden, num_classes, num_layers=2, seed=0
    )
    train_mask, val_mask = train_val_split(graph.num_vertices, 0.6, seed=0)
    trainer = Trainer(
        model, Adam(model, lr=0.01), aggregation_kernel=BasicKernel()
    )
    history = trainer.fit(
        graph, features, labels, epochs=5,
        train_mask=train_mask, val_mask=val_mask,
    )
    print(f"training: loss {history.epochs[0].loss:.3f} -> "
          f"{history.final_loss:.3f} over {len(history.epochs)} epochs")

    # ------------------------------------------------------------------
    # 3. Optimized inference against the layer-by-layer oracle.
    # ------------------------------------------------------------------
    logits = model.predict(graph, features, kernel=BasicKernel())
    h = features
    for layer in model.layers:
        h = aggregate(graph, h, layer.aggregator) @ layer.weight + layer.bias
        if layer.activation:
            h = np.maximum(h, 0.0)
    max_err = float(np.abs(logits - h).max())
    print(f"inference: {logits.shape[0]} x {logits.shape[1]} logits, "
          f"max error vs the oracle {max_err:.2e}")
    assert max_err < 1e-4
    print("quickstart OK")


if __name__ == "__main__":
    main()
