"""Shards run each layer in ``Trainer``'s order, and move only what it gathers.

A layer past the first that narrows runs transform-first on every shard,
as ``GNNLayer.forward`` does (one rule, ``nn.layers.transform_first``):
its halo exchange moves ``out``-wide ``z = h W`` rows forward and
``out``-wide ``grad_pre`` rows backward, and no ``in``-wide board
exists for it.  Halo traffic is then a closed form in the partition's
halo counts and ``min(in, out)`` per exchanging layer, the way
``tests/nn/test_work_budget.py`` states gathers.
"""

import numpy as np
import pytest

from repro.graphs import load_dataset, synthetic_features
from repro.nn import Adam
from repro.parallel import ShardedTrainer

FEATURES = 12
CLASSES = 5
SHARDS = 3
FP32 = 4


@pytest.fixture(scope="module")
def graph():
    return load_dataset("products", scale=0.05, seed=3)


@pytest.fixture(scope="module")
def inputs(graph):
    labels = np.random.default_rng(8).integers(0, CLASSES, graph.num_vertices)
    return (synthetic_features(graph, FEATURES, seed=4, sparsity=0.3),
            labels.astype(np.int64))


def _trainer(graph, model):
    return ShardedTrainer(graph, model, Adam(model, lr=0.01), num_shards=SHARDS,
                          backend="serial")


def _halo_count(graph, assignment, part):
    """Distinct remote vertices whose rows ``part``'s own rows gather."""
    rows = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    cols = graph.indices
    remote = (assignment[rows] == part) & (assignment[cols] != part)
    return len(np.unique(cols[remote]))


#: 12 -> 24 -> 16 -> 5: both exchanging layers narrow (transform-first).
#: 12 -> 8 -> 16 -> 5: layer 1 widens (aggregate-first), layer 2 narrows.
MODELS = [(FEATURES, 24, 16, CLASSES), (FEATURES, 8, 16, CLASSES)]
model_ids = pytest.mark.parametrize("widths", MODELS,
                                    ids=lambda widths: "-".join(map(str, widths)))


@model_ids
def test_halo_bytes_are_the_closed_form(graph, inputs, stack_model, widths):
    """Per epoch, every exchanging layer moves each shard's forward and
    transposed halo once, at ``min(in, out)`` floats a row."""
    with _trainer(graph, stack_model(widths)) as trainer:
        trainer.fit(*inputs, epochs=1)
        first = trainer.last_halo_bytes
        trainer.train_epoch()
        assignment = trainer.partition.assignment
        transpose = graph.transpose()
        halo_rows = sum(
            _halo_count(graph, assignment, p) + _halo_count(transpose, assignment, p)
            for p in range(SHARDS)
        )
        narrow = sum(min(widths[k], widths[k + 1]) for k in range(1, len(widths) - 1))
        assert halo_rows > 0
        assert first == trainer.last_halo_bytes == halo_rows * narrow * FP32


@model_ids
def test_boards_are_as_wide_as_what_is_gathered(graph, inputs, stack_model, widths):
    """``z{k}`` / ``g{k}`` are ``out``-wide for a transform-first layer
    and no ``h{k-1}`` board exists for it; ``h{L-1}`` always does, for
    ``logits()``.  The private operands have the same widths."""
    num_layers = len(widths) - 1
    with _trainer(graph, stack_model(widths)) as trainer:
        trainer.fit(*inputs, epochs=1)
        bundle = trainer._bundle
        boards = {name: bundle.view(name).shape[1] for name in bundle.names()
                  if name[0] in "hzg" and name[1:].isdigit()}
        expected = {f"h{num_layers - 1}": widths[-1]}
        for k in range(1, num_layers):
            narrow = min(widths[k], widths[k + 1])
            expected[f"g{k}"] = narrow
            if widths[k + 1] < widths[k]:
                expected[f"z{k}"] = narrow
            else:
                expected[f"h{k - 1}"] = widths[k]
        assert boards == expected
        for runtime in trainer._runtimes:
            assert runtime._x[0] is None and runtime._xg[0] is None
            for k in range(1, num_layers):
                narrow = min(widths[k], widths[k + 1])
                assert runtime._x[k].shape[1] == narrow
                assert runtime._xg[k].shape[1] == narrow
        assert trainer.logits().shape == (graph.num_vertices, CLASSES)
