"""Exact allocation budget of a steady-state training epoch.

The ``Trainer`` owns a workspace of two ``V x hidden`` buffers per
hidden layer and every epoch's update GEMMs, bias adds, ReLUs and masks
write into it, so after a warm-up epoch ``train_epoch`` allocates
nothing of ``V x hidden x 4`` bytes: what is left is ``V x C``-sized
(logits, loss gradient, the two 16-wide aggregation passes), one
boolean ReLU mask at a time, and parameter-sized.  ``tracemalloc``
sees every numpy buffer, so the bound is a closed form in ``V``, ``C``,
``hidden`` and the parameter count — no ``E`` term, no timing.

It also holds what a caller may keep: logits from ``predict`` or from a
``forward`` that was lent no workspace never alias the trainer's buffers.
"""

import tracemalloc

import numpy as np
import pytest

from repro.graphs import load_dataset, synthetic_features
from repro.kernels import BasicKernel
from repro.nn import Adam, Trainer, build_model

#: The perfbench student.
IN_FEATURES, HIDDEN, CLASSES = 100, 256, 16
FP32 = 4


@pytest.fixture(scope="module")
def task():
    graph = load_dataset("products", scale=1.0, seed=5)  # 4,096 vertices
    features = synthetic_features(graph, IN_FEATURES, seed=5)
    rng = np.random.default_rng(5)
    labels = rng.integers(0, CLASSES, graph.num_vertices)
    train_mask = rng.random(graph.num_vertices) < 0.6
    return graph, features, labels, train_mask


def _warm_trainer(task):
    graph, features, labels, train_mask = task
    model = build_model("gcn", IN_FEATURES, HIDDEN, CLASSES, seed=0)
    kernel = BasicKernel()
    trainer = Trainer(model, Adam(model, lr=0.01), aggregation_kernel=kernel)
    trainer.train_epoch(graph, features, labels, train_mask, ~train_mask)
    return trainer, kernel


def test_steady_state_epoch_allocates_no_hidden_sized_block(task):
    graph, features, labels, train_mask = task
    trainer, _ = _warm_trainer(task)
    v = graph.num_vertices
    params = sum(array.size for _, _, array in trainer.model.parameters())
    tracemalloc.start()
    try:
        trainer.train_epoch(graph, features, labels, train_mask, ~train_mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The peak is layer 0's backward: ONE boolean V x hidden ReLU mask
    # next to the three V x C fp32 arrays the epoch still holds (the
    # gathered h·W kept by the cache, the logits, the loss gradient).
    # Every other phase holds less: an aggregation pass adds its output
    # and one scipy product temporary to those three (5 x V x C), the
    # loss its train-row softmax.  A fourth V x C, the `correct` flags
    # and two parameter sets (gradients + one optimizer temporary) are
    # the stated slack.
    budget = (
        v * HIDDEN + 4 * v * CLASSES * FP32 + v + 2 * params * FP32 + 2**14
    )
    hidden_block = v * HIDDEN * FP32
    assert budget < hidden_block  # so the bound below rules one out
    assert peak <= budget, f"epoch peaked at {peak} B, budget {budget} B"


def test_workspace_is_two_buffers_per_hidden_layer(task):
    graph = task[0]
    trainer, _ = _warm_trainer(task)
    workspace = trainer._workspace
    buffers = workspace.values + workspace.grads
    assert sum(b.nbytes for b in buffers) == 2 * graph.num_vertices * HIDDEN * FP32
    before = [id(buffer) for buffer in buffers]
    trainer.train_epoch(*task[:4])
    after = trainer._workspace
    assert [id(buffer) for buffer in after.values + after.grads] == before


def test_nothing_a_caller_keeps_aliases_the_workspace(task):
    graph, features, labels, train_mask = task
    trainer, kernel = _warm_trainer(task)
    model = trainer.model
    predicted = model.predict(graph, features, kernel=kernel)
    logits, caches = model.forward(graph, features, training=True, kernel=kernel)
    hidden = caches[1].h_in
    kept = [predicted, logits, hidden]
    buffers = trainer._workspace.values + trainer._workspace.grads
    for array in kept:
        assert not any(np.shares_memory(array, buffer) for buffer in buffers)
    copies = [array.copy() for array in kept]
    trainer.train_epoch(graph, features, labels, train_mask, ~train_mask)
    for array, copy in zip(kept, copies):
        np.testing.assert_array_equal(array, copy)
    # ... and the lent-workspace pass computes what the fresh one does.
    lent, _ = model.forward(
        graph, features, training=True, kernel=kernel,
        workspace=trainer._workspace,
    )
    fresh, _ = model.forward(graph, features, training=True, kernel=kernel)
    np.testing.assert_array_equal(lent, fresh)
