"""Acceptance test for unified run telemetry.

Trains on a synthetic twin with tracing enabled and asserts the two
properties the observability layer promises:

1. the exported span tree nests epoch -> layer -> kernel, and
2. the counters aggregated from the trace exactly match the
   ``KernelStats`` the kernels returned to the trainer (whose closed
   forms ``tests/integration/test_kernel_vs_oracle.py`` pins).

The run splits every pass into two lanes (the ``always_split``
fixture); lanes are not spans, so the tree is the same on one lane.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.graphs import power_law_graph, synthetic_features
from repro.kernels import TASK_SIZE, BasicKernel, KernelStats
from repro.nn import Adam, Trainer, build_model
from repro.obs import read_trace, span_tree

EPOCHS = 2
LAYERS = 2
LANES = 2


def _tiny_inputs(features=16, classes=4, seed=0):
    graph = power_law_graph(300, 6.0, seed=seed, name="tiny")
    h = synthetic_features(graph, features, seed=seed, sparsity=0.5)
    labels = np.random.default_rng(seed).integers(0, classes, graph.num_vertices)
    return graph, h, labels


@pytest.fixture
def traced_run(always_split, telemetry):
    """One traced training run; returns (tracer, metrics, history)."""
    always_split(LANES)
    graph, h, labels = _tiny_inputs()
    model = build_model("gcn", h.shape[1], 16, 4, seed=0)
    kernel = BasicKernel()
    trainer = Trainer(model, Adam(model, lr=0.01), aggregation_kernel=kernel)
    with telemetry() as (tracer, metrics):
        trainer.fit(graph, h, labels, epochs=EPOCHS)
    return tracer, metrics, trainer.history


class TestSpanTreeShape:
    def test_nests_epoch_layer_kernel(self, traced_run):
        """Every layer span holds one kernel span — except the first
        layer after the first epoch: ``Â · features`` is a constant the
        trainer keeps, so that layer no longer runs a kernel at all."""
        tracer, _, _ = traced_run
        records = [s.to_record() for s in tracer.spans()]
        roots = span_tree(records)
        epochs = [r for r in roots if r["name"] == "epoch"]
        assert len(epochs) == EPOCHS
        for epoch_idx, epoch in enumerate(epochs):
            layers = [c for c in epoch["children"] if c["name"] == "layer"]
            assert len(layers) == LAYERS
            for layer_idx, layer in enumerate(layers):
                kernels = [
                    c for c in layer["children"]
                    if c["name"].startswith("kernel.")
                ]
                if epoch_idx > 0 and layer_idx == 0:
                    assert kernels == []
                    continue
                assert len(kernels) == 1
                assert kernels[0]["children"] == []

    def test_backward_is_epoch_child(self, traced_run):
        tracer, _, _ = traced_run
        records = [s.to_record() for s in tracer.spans()]
        for root in span_tree(records):
            names = [c["name"] for c in root["children"]]
            assert names.count("backward") == 1


class TestCounterConsistency:
    def test_trace_matches_returned_kernel_stats(self, traced_run):
        """The acceptance criterion: trace totals == KernelStats totals.

        ``kernel.*`` spans now cover both directions (forward aggregation
        and the batched backward), so the trace totals must equal the
        forward and backward stats the trainer accumulated, merged.
        """
        tracer, _, history = traced_run
        merged = KernelStats()
        merged.merge(history.aggregation_stats)
        merged.merge(history.backward_stats)
        assert tracer.aggregate_counters("kernel.*") == merged.as_dict()

    def test_metrics_registry_agrees_with_trace(self, traced_run):
        """One kernel run per aggregation that can change.  Forward:
        every layer in the first epoch, every layer but the first (whose
        ``Â · features`` is kept) afterwards.  Backward: every layer but
        the first, whose input gradient nothing consumes.  The count was
        ``EPOCHS * LAYERS * 2`` when both were recomputed every epoch."""
        tracer, metrics, _ = traced_run
        snap = metrics.snapshot()
        totals = tracer.aggregate_counters("kernel.basic")
        assert snap["kernel.basic.gathers"]["value"] == totals["gathers"]
        forward_runs = LAYERS + (EPOCHS - 1) * (LAYERS - 1)
        backward_runs = EPOCHS * (LAYERS - 1)
        runs = len(tracer.spans("kernel.*"))
        assert runs == forward_runs + backward_runs
        tasks = (
            snap["kernel.basic.tasks"]["value"]
            + snap["kernel.backward.basic.tasks"]["value"]
        )
        n = _tiny_inputs()[0].num_vertices
        assert tasks == runs * -(-n // TASK_SIZE)


class TestCliArtifacts:
    def test_train_trace_and_json(self, tmp_path, capsys):
        trace_path = tmp_path / "out.jsonl"
        json_path = tmp_path / "run.json"
        code = main([
            "train", "products", "--scale", "0.05", "--epochs", "2",
            "--features", "16", "--hidden", "16",
            "--trace", str(trace_path), "--json", str(json_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "spans" in out

        header, records = read_trace(str(trace_path))
        roots = span_tree(records)
        epoch = next(r for r in roots if r["name"] == "epoch")
        layer = next(c for c in epoch["children"] if c["name"] == "layer")
        kernel = next(
            c for c in layer["children"] if c["name"].startswith("kernel.")
        )
        assert kernel["children"] == []

        report = json.loads(json_path.read_text())
        # One run, one manifest: the trace and the report carry the same.
        assert report["manifest"] == header["manifest"]
        assert report["manifest"]["command"] == "train"
        assert report["manifest"]["config"]["epochs"] == 2
        assert len(report["spans"]) == len(records)
        # The report's counter totals join trace + metrics consistently.
        kernel_records = [
            r for r in records if r["name"].startswith("kernel.")
        ]
        gathers = sum(r["counters"]["gathers"] for r in kernel_records)
        # Forward and backward publish to separate metric namespaces.
        published = (
            report["metrics"]["kernel.basic.gathers"]["value"]
            + report["metrics"]["kernel.backward.basic.gathers"]["value"]
        )
        assert published == gathers

    def test_disabled_by_default(self):
        graph, h, labels = _tiny_inputs()
        model = build_model("gcn", h.shape[1], 16, 4, seed=0)
        trainer = Trainer(
            model, Adam(model, lr=0.01), aggregation_kernel=BasicKernel()
        )
        trainer.fit(graph, h, labels, epochs=1)
        assert obs.get_tracer().enabled is False
        assert obs.get_metrics().snapshot() == {}
