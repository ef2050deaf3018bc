"""Exact set-up budget of a training run: each graph layout is built once.

A ψ layout depends on the graph, the direction and the aggregator, not
on the layer width, so a ``Trainer`` + ``BasicKernel`` run computes the
ψ factors once per (graph, aggregator) and builds two ``ScaledCSR``
layouts per graph, however many layers and widths it specializes: the
forward one, and one transposed one built from it — the whole graph's
for an unmasked run, the loss mask's live rows alone for a masked run,
which never builds the graph-wide transpose.  A transpose is a counting
pass, never a sort.  Counted with spies, so a layout rebuilt per width
(or per epoch) fails here by number rather than in a noisy ``setup_s``.
"""

import importlib

import numpy as np
import pytest

from repro.graphs import CSRGraph, power_law_graph, synthetic_features
from repro.kernels import BasicKernel
from repro.kernels.segment import ScaledCSR
from repro.nn import GNNLayer, GNNModel, SGD, Trainer, build_model

# ``repro.nn.aggregate`` the attribute is the function; spy on the module.
aggregate_module = importlib.import_module("repro.nn.aggregate")
jit = importlib.import_module("repro.kernels.jit")


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(200, 5.0, seed=3, name="setup")


@pytest.fixture()
def built(monkeypatch):
    """Running counts of ψ-factor computations and layouts built."""
    counts = {"factors": 0, "layouts": 0}
    factors = aggregate_module.normalization_factors
    from_csr = ScaledCSR.from_csr.__func__

    def counting_factors(*args, **kwargs):
        counts["factors"] += 1
        return factors(*args, **kwargs)

    def counting_from_csr(cls, *args, **kwargs):
        counts["layouts"] += 1
        return from_csr(cls, *args, **kwargs)

    for module in (aggregate_module, jit):
        monkeypatch.setattr(module, "normalization_factors", counting_factors)
    monkeypatch.setattr(ScaledCSR, "from_csr", classmethod(counting_from_csr))
    return counts


def _trainer(model, graph):
    """A kernel trainer of ``model``, and features and labels for it."""
    features = synthetic_features(graph, model.layers[0].in_features, seed=1)
    labels = np.random.default_rng(1).integers(
        0, model.layers[-1].out_features, graph.num_vertices
    )
    trainer = Trainer(model, SGD(model, lr=0.05), aggregation_kernel=BasicKernel())
    return trainer, features, labels


def test_two_layer_first_epoch_builds_two_layouts(graph, built):
    """100 -> 256 -> 16 specializes three widths (100 and 16 forward, 16
    backward) over one forward and one transposed layout."""
    model = build_model("gcn", 100, 256, 16, seed=0)
    trainer, features, labels = _trainer(model, graph)
    trainer.train_epoch(graph, features, labels)
    assert built == {"factors": 1, "layouts": 2}
    trainer.train_epoch(graph, features, labels)
    assert built == {"factors": 1, "layouts": 2}  # epoch 2 builds nothing


def test_three_layer_model_builds_the_same_two_layouts(graph, built):
    model = GNNModel([
        GNNLayer(12, 20, activation=True, seed=0),
        GNNLayer(20, 8, activation=True, seed=1),
        GNNLayer(8, 5, activation=False, seed=2),
    ])
    trainer, features, labels = _trainer(model, graph)
    for _ in range(3):
        trainer.train_epoch(graph, features, labels)
        assert built == {"factors": 1, "layouts": 2}


def test_second_graph_object_adds_its_own_layouts(graph, built):
    """Layouts are keyed per graph object: the same arrays in a new
    graph build their own pair, once, and the first graph's stay."""
    model = build_model("gcn", 12, 20, 5, seed=0)
    trainer, features, labels = _trainer(model, graph)
    twin = CSRGraph(graph.indptr, graph.indices, name="twin")
    trainer.train_epoch(graph, features, labels)
    trainer.train_epoch(twin, features, labels)
    assert built == {"factors": 2, "layouts": 4}
    trainer.train_epoch(graph, features, labels)
    trainer.train_epoch(twin, features, labels)
    assert built == {"factors": 2, "layouts": 4}


def test_loss_mask_builds_one_live_row_layout(graph, built):
    """A masked run builds the forward layout and the live-row layout
    in epoch 0 — no full transposed layout — the latter once per
    (graph, aggregator, mask): a mask edited in place to the same
    values builds nothing, and one edited to new values builds once."""
    model = build_model("gcn", 100, 256, 16, seed=0)
    trainer, features, labels = _trainer(model, graph)
    mask = np.random.default_rng(2).random(graph.num_vertices) < 0.3
    for _ in range(3):
        trainer.train_epoch(graph, features, labels, train_mask=mask)
        assert built == {"factors": 1, "layouts": 2}
    mask[:] = mask.copy()  # in place, the same values
    trainer.train_epoch(graph, features, labels, train_mask=mask)
    assert built == {"factors": 1, "layouts": 2}
    mask[: len(mask) // 2] = ~mask[: len(mask) // 2]  # in place, new values
    for _ in range(2):
        trainer.train_epoch(graph, features, labels, train_mask=mask)
        assert built == {"factors": 1, "layouts": 3}


def test_masked_run_never_builds_the_csc_view(graph, monkeypatch):
    """Every transposed layout is built from the forward layout: a
    masked ``Trainer`` + ``BasicKernel`` run never asks the graph for
    its CSC view, the graph-wide transpose."""
    calls = []
    csc_arrays = CSRGraph.csc_arrays

    def counting_csc_arrays(self):
        calls.append(self)
        return csc_arrays(self)

    monkeypatch.setattr(CSRGraph, "csc_arrays", counting_csc_arrays)
    fresh = CSRGraph(graph.indptr, graph.indices)
    model = build_model("gcn", 100, 256, 16, seed=0)
    trainer, features, labels = _trainer(model, fresh)
    mask = np.random.default_rng(2).random(fresh.num_vertices) < 0.3
    for _ in range(2):
        trainer.train_epoch(fresh, features, labels, train_mask=mask)
    assert calls == []


def test_csc_arrays_never_sorts(graph, monkeypatch):
    def no_argsort(*args, **kwargs):
        raise AssertionError("csc_arrays must be a counting transpose")

    fresh = CSRGraph(graph.indptr, graph.indices)
    monkeypatch.setattr(np, "argsort", no_argsort)
    t_indptr, t_indices, perm = fresh.csc_arrays()
    assert len(t_indices) == len(perm) == graph.num_edges
