"""Section 2.2: hidden-feature sparsity profile during GraphSAGE training.

The paper profiles a 20-epoch, 3-layer GraphSAGE on ogbn-products and
finds layer-2 inputs >60% sparse after ReLU (>80% with dropout) and
layer-3 inputs >90% sparse.  This regenerates that measurement on the
twin with the real trainer.
"""

import numpy as np
from conftest import run_experiment

from repro.bench.harness import Experiment
from repro.bench.paper_values import SEC22_SPARSITY
from repro.graphs import load_dataset, synthetic_features
from repro.kernels import BasicKernel
from repro.nn import Adam, Trainer, build_model


def _profile_sparsity(ctx):
    graph = ctx.graph("products")
    features = synthetic_features(graph, 64, seed=0)
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 8, graph.num_vertices)
    model = build_model("sage", 64, 96, 8, num_layers=3, dropout=0.5, seed=0)
    trainer = Trainer(
        model, Adam(model, lr=0.01), profile_sparsity=True,
        aggregation_kernel=BasicKernel(),
    )
    trainer.fit(graph, features, labels, epochs=20)
    profile = trainer.history.sparsity

    exp = Experiment("sec2.2", "Hidden-feature sparsity, 3-layer SAGE training")
    exp.add("layer-2 input sparsity", profile.mean(1),
            SEC22_SPARSITY["layer2_dropout"], unit="frac")
    exp.add("layer-3 input sparsity", profile.mean(2),
            SEC22_SPARSITY["layer3"], unit="frac")
    return exp


def test_sec22_sparsity_profile(benchmark, ctx):
    exp = run_experiment(benchmark, _profile_sparsity, ctx)
    values = {r.label: r.measured for r in exp.rows}
    # ReLU + 50% dropout: layer-2 inputs well over half sparse.
    assert values["layer-2 input sparsity"] > 0.6
    # Deeper layers are sparser still.
    assert values["layer-3 input sparsity"] >= values["layer-2 input sparsity"] - 0.05
