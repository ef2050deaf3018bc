"""Exact allocation budget of a steady-state training epoch.

The ``Trainer`` owns a workspace of one ``V x hidden`` buffer per hidden
layer plus the dense sweeps' block scratch, and every epoch's update
GEMMs, bias adds and ReLUs write into it, so after a warm-up epoch
``train_epoch`` allocates nothing of ``V x hidden`` size: no gradient
of a hidden activation is ever ``V`` rows, and the ReLU mask is one row
block per lane.  What is left is ``V x C``-sized (logits, loss gradient,
the two 16-wide aggregation passes) and parameter-sized.
``tracemalloc`` sees every numpy buffer, so the bound is a closed form
in ``V``, ``C``, ``hidden``, the block size and the parameter count —
no ``E`` term, no timing.

It also holds what a caller may keep: logits from ``predict`` or from a
``forward`` that was lent no workspace never alias the trainer's buffers;
and ``predict`` itself never holds a ``V x hidden`` block.
"""

import tracemalloc

import numpy as np
import pytest

from repro import lanes
from repro.graphs import load_dataset, synthetic_features
from repro.kernels import BasicKernel
from repro.nn import Adam, Trainer, build_model
from repro.nn.layers import SWEEP_CHUNKS, SWEEP_ROWS

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
    # The peak is the backward sweep that runs layer 1's dense phases
    # and layer 0's update: the four V x C fp32 arrays the epoch then
    # holds (the gathered h·W kept by the cache, the logits, the loss
    # gradient, its transposed aggregation), the `correct` flags, one
    # boolean ReLU mask of a row block per lane at work, and two
    # parameter sets (gradients + one optimizer temporary).  The block
    # buffers and gradient partials are the workspace's.
    block_masks = min(lanes.lane_count(), SWEEP_CHUNKS) * _block_rows() * HIDDEN
    budget = (
        4 * v * CLASSES * FP32 + v + block_masks + 2 * params * FP32 + 2**14
    )
    assert block_masks < v * HIDDEN  # so the bound rules out a V x hidden mask
    assert peak <= budget, f"epoch peaked at {peak} B, budget {budget} B"


def _block_rows():
    return SWEEP_ROWS + lanes.MIN_SLICE - 1


def test_workspace_is_one_buffer_per_hidden_layer(task):
    graph = task[0]
    trainer, _ = _warm_trainer(task)
    workspace = trainer._workspace
    assert sum(b.nbytes for b in workspace.values) == graph.num_vertices * HIDDEN * FP32
    # The sweeps' scratch: per lane, one block of the hidden gradient
    # and a block partial of every parameter; per chunk, an accumulator
    # of every parameter.
    params = sum(array.size for _, _, array in trainer.model.parameters())
    lanes_used = min(lanes.lane_count(), SWEEP_CHUNKS)
    scratch = workspace.buffers.nbytes
    assert scratch <= (
        lanes_used * (_block_rows() * HIDDEN + params) + SWEEP_CHUNKS * params
    ) * FP32
    before = [id(buffer) for buffer in workspace.values]
    trainer.train_epoch(*task[:4])
    after = trainer._workspace
    assert after is workspace
    assert [id(buffer) for buffer in after.values] == before
    assert after.buffers.nbytes == scratch


def test_nothing_a_caller_keeps_aliases_the_workspace(task):
    graph, features, labels, train_mask = task
    trainer, kernel = _warm_trainer(task)
    model = trainer.model
    predicted = model.predict(graph, features, kernel=kernel)
    logits, caches = model.forward(graph, features, training=True, kernel=kernel)
    hidden = caches[1].h_in
    kept = [predicted, logits, hidden]
    buffers = trainer._workspace.values
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


def test_predict_allocates_no_hidden_sized_block(task):
    """Inference keeps no hidden activation: layer 0's blocks pass
    through one reused buffer per lane into layer 1's ``h W``.  With
    32-wide features (``Â · features`` and its product temporary are
    then small) the bound sits below one ``V x hidden`` block."""
    graph = task[0]
    v, width = graph.num_vertices, 32
    features = synthetic_features(graph, width, seed=5)
    model = build_model("gcn", width, HIDDEN, CLASSES, seed=0)
    kernel = BasicKernel()
    model.predict(graph, features, kernel=kernel)  # builds the layouts
    tracemalloc.start()
    try:
        logits = model.predict(graph, features, kernel=kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Â · features and its scipy product temporary, the block buffers,
    # and three V x C arrays (h W, its aggregation, one temporary).
    lanes_used = min(lanes.lane_count(), SWEEP_CHUNKS)
    budget = (
        2 * v * width * FP32
        + lanes_used * _block_rows() * HIDDEN * FP32
        + 3 * v * CLASSES * FP32 + 2**16
    )
    assert budget < v * HIDDEN * FP32  # so the bound rules one out
    assert peak <= budget, f"predict peaked at {peak} B, budget {budget} B"
    fresh, _ = model.forward(graph, features, kernel=kernel)
    np.testing.assert_array_equal(logits, fresh)
