"""Exact work budget of a steady-state training epoch.

A full-batch epoch aggregates only what can change, at the narrower
width: the first layer's ``Â · features`` is kept from the first epoch,
``∂L/∂features`` is never formed, and a narrowing layer gathers
``h W`` rows instead of ``h`` rows.  ``KernelStats`` counts gathers and
flops exactly, so the budget is an equality — a dead pass that creeps
back in fails here, deterministically, rather than in a noisy timing.
"""

import numpy as np
import pytest

from repro.graphs import power_law_graph, synthetic_features
from repro.kernels import BasicKernel
from repro.nn import SGD, Trainer, build_model


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(200, 5.0, seed=3, name="budget")


def _per_epoch_work(graph, model, epochs=4, train_mask=None):
    """(gathers, gathered elements) of every epoch, forward + backward."""
    features = synthetic_features(graph, model.layers[0].in_features, seed=1)
    labels = np.random.default_rng(1).integers(
        0, model.layers[-1].out_features, graph.num_vertices
    )
    trainer = Trainer(model, SGD(model, lr=0.05), aggregation_kernel=BasicKernel())
    history = trainer.history
    work = []
    gathers = elements = 0
    for _ in range(epochs):
        trainer.train_epoch(graph, features, labels, train_mask=train_mask)
        total_gathers = (
            history.aggregation_stats.gathers + history.backward_stats.gathers
        )
        # KernelStats.flops is 2 x gathers x width per pass.
        total_elements = (
            history.aggregation_stats.flops + history.backward_stats.flops
        ) / 2
        work.append((total_gathers - gathers, total_elements - elements))
        gathers, elements = total_gathers, total_elements
    return work


def test_benchmark_student_gathers_two_narrow_passes(graph):
    """100 -> 256 -> 16: one forward and one backward pass per epoch,
    both over the 16-wide output layer — 32·(E+V) elements, down from
    the 712·(E+V) of four passes at widths 100 / 256 / 256 / 100."""
    rows = graph.num_edges + graph.num_vertices
    work = _per_epoch_work(graph, build_model("gcn", 100, 256, 16, seed=0))
    # The first epoch also aggregates the features, once.
    assert work[0] == (3 * rows, (100 + 16 + 16) * rows)
    for epoch_work in work[1:]:
        assert epoch_work == (2 * rows, 32 * rows)


@pytest.mark.parametrize(
    "widths",
    [
        (12, 5),
        (12, 20, 5),
        (12, 20, 8, 5),
        (12, 6, 20, 20, 5),
        (5, 5, 5),
    ],
    ids=lambda widths: "-".join(map(str, widths)),
)
def test_steady_state_passes_and_widths(graph, stack_model, widths):
    """Any L-layer model makes ``2·(L−1)`` passes per steady-state
    epoch; only their widths depend on which layers narrow (each layer
    past the first gathers ``min(in, out)``-wide rows, both ways)."""
    rows = graph.num_edges + graph.num_vertices
    num_layers = len(widths) - 1
    work = _per_epoch_work(graph, stack_model(widths))
    narrow = sum(min(widths[k], widths[k + 1]) for k in range(1, num_layers))
    assert work[0] == (
        (2 * num_layers - 1) * rows, (widths[0] + 2 * narrow) * rows
    )
    for epoch_work in work[1:]:
        assert epoch_work == (2 * (num_layers - 1) * rows, 2 * narrow * rows)


def test_masked_loss_gathers_only_its_rows_backward(graph):
    """With a loss mask, the last layer's gradient is exactly zero off
    the mask, so its transposed aggregation gathers only the edges out
    of masked rows plus every self term: ``Σ deg(train rows) + V``."""
    v = graph.num_vertices
    rows = graph.num_edges + v
    mask = np.random.default_rng(2).random(v) < 0.3
    live = int(graph.degrees()[mask].sum()) + v
    assert live < rows
    work = _per_epoch_work(
        graph, build_model("gcn", 100, 256, 16, seed=0), train_mask=mask
    )
    assert work[0] == (2 * rows + live, 100 * rows + 16 * rows + 16 * live)
    for epoch_work in work[1:]:
        assert epoch_work == (rows + live, 16 * (rows + live))
