"""End-to-end learning: the full-batch GCN recovers planted communities."""

import numpy as np
import pytest

from repro.graphs import planted_partition_graph
from repro.nn import Adam, Trainer, accuracy, build_model, train_val_split


@pytest.fixture(scope="module")
def task():
    graph, labels = planted_partition_graph(
        240, num_classes=4, p_in=0.10, p_out=0.006, seed=11
    )
    rng = np.random.default_rng(11)
    features = rng.standard_normal((240, 12)).astype(np.float32)
    return graph, features, labels


def _mlp_baseline_accuracy(features, labels, train_mask, val_mask, seed=0):
    """A graph-free logistic baseline: features alone carry no signal,
    so the GNN's advantage must come from the structure."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((features.shape[1], labels.max() + 1)).astype(np.float32)
    w *= 0.1
    for _ in range(60):
        logits = features @ w
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        grad_logits = probs
        grad_logits[np.arange(len(labels)), labels] -= 1
        grad_logits[~train_mask] = 0
        w -= 0.5 * features.T @ grad_logits / train_mask.sum()
    return accuracy(features @ w, labels, mask=val_mask)


class TestCommunityRecovery:
    def test_gcn_beats_structure_free_baseline(self, task):
        graph, features, labels = task
        train_mask, val_mask = train_val_split(240, 0.5, seed=1)
        model = build_model("gcn", 12, 32, 4, num_layers=2, seed=1)
        trainer = Trainer(model, Adam(model, lr=0.02))
        trainer.fit(graph, features, labels, epochs=80, train_mask=train_mask)
        logits = model.predict(graph, features)
        gcn_val = accuracy(logits, labels, mask=val_mask)
        baseline_val = _mlp_baseline_accuracy(
            features, labels, train_mask, val_mask
        )
        assert gcn_val > baseline_val + 0.1
        assert gcn_val > 0.45  # chance is 0.25

    def test_sage_learns_too(self, task):
        graph, features, labels = task
        model = build_model("sage", 12, 32, 4, num_layers=2, seed=2)
        trainer = Trainer(model, Adam(model, lr=0.02))
        history = trainer.fit(graph, features, labels, epochs=60)
        assert history.epochs[-1].train_accuracy > 0.5

    def test_deeper_model_trains_stably(self, task):
        graph, features, labels = task
        model = build_model("gcn", 12, 24, 4, num_layers=3, dropout=0.3, seed=3)
        trainer = Trainer(model, Adam(model, lr=0.01))
        history = trainer.fit(graph, features, labels, epochs=30)
        assert np.isfinite(history.final_loss)
        assert history.epochs[-1].loss < history.epochs[0].loss
