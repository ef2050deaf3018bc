"""Unit tests for the full-batch trainer."""

import logging
import math

import numpy as np
import pytest

from repro.graphs import CSRGraph, planted_partition_graph
from repro.kernels import BasicKernel
from repro.nn import (
    Adam, GNNLayer, GNNModel, LayerGrads, SGD, Trainer, build_model,
    train_val_split,
)
import repro.nn.training as training
from repro.nn import functional as F
from repro.nn.aggregate import aggregate, aggregate_backward
from repro.nn.training import TrainingHistory
from repro.obs.events import EventLog, validate_events
from repro.obs.rules import (
    FatalRuleError, RuleEngine, default_train_rules, parse_rules,
)


@pytest.fixture(scope="module")
def community_task():
    graph, labels = planted_partition_graph(150, 3, p_in=0.12, p_out=0.01, seed=0)
    rng = np.random.default_rng(0)
    # Features weakly correlated with the label, so the GNN must use the
    # graph structure to do well.
    features = rng.standard_normal((150, 8)).astype(np.float32)
    features[:, 0] += labels * 0.5
    return graph, features, labels


def _trainer(seed, hidden=8, optimizer=SGD, lr=None, dropout=0.0, **kwargs):
    """An 8 -> ``hidden`` -> 3 GCN and its trainer (SGD at 0.1, Adam at
    0.02 unless ``lr`` says otherwise)."""
    model = build_model("gcn", 8, hidden, 3, num_layers=2, dropout=dropout,
                        seed=seed)
    lr = lr or (0.1 if optimizer is SGD else 0.02)
    return model, Trainer(model, optimizer(model, lr=lr), **kwargs)


class TestTrainer:
    def test_loss_decreases(self, community_task):
        graph, features, labels = community_task
        model, trainer = _trainer(0, hidden=16, optimizer=Adam)
        history = trainer.fit(graph, features, labels, epochs=15)
        assert history.epochs[-1].loss < history.epochs[0].loss

    def test_accuracy_improves_over_chance(self, community_task):
        graph, features, labels = community_task
        model, trainer = _trainer(1, hidden=16, optimizer=Adam)
        history = trainer.fit(graph, features, labels, epochs=40)
        assert history.epochs[-1].train_accuracy > 0.6  # chance is ~0.33

    def test_masked_training_reports_val(self, community_task):
        graph, features, labels = community_task
        train_mask, val_mask = train_val_split(graph.num_vertices, 0.5, seed=0)
        _, trainer = _trainer(2, hidden=16, optimizer=Adam)
        result = trainer.train_epoch(graph, features, labels,
                                     train_mask=train_mask, val_mask=val_mask)
        assert result.val_accuracy is not None

    def test_sparsity_profile_recorded(self, community_task):
        graph, features, labels = community_task
        model, trainer = _trainer(3, hidden=16, dropout=0.5, profile_sparsity=True)
        trainer.fit(graph, features, labels, epochs=2)
        profile = trainer.history.sparsity
        assert profile.layers() == [0, 1]
        # Layer 1's input passed through ReLU + dropout: clearly sparse.
        assert profile.mean(1) > 0.3

    def test_history_losses(self, community_task):
        graph, features, labels = community_task
        model, trainer = _trainer(4)
        trainer.fit(graph, features, labels, epochs=3)
        assert len(trainer.history.losses()) == 3

    def test_empty_history_final_values_are_nan(self):
        history = TrainingHistory()
        assert math.isnan(history.final_loss)

    def test_verbose_fit_logs_not_prints(self, community_task, caplog, capsys):
        graph, features, labels = community_task
        model, trainer = _trainer(5)
        with caplog.at_level(logging.INFO, logger="repro.nn.training"):
            trainer.fit(graph, features, labels, epochs=2, verbose=True)
        lines = [r.message for r in caplog.records if "epoch" in r.message]
        assert len(lines) == 2
        assert "loss" in lines[0] and "train-acc" in lines[0]
        assert capsys.readouterr().out == ""  # nothing on stdout

    def test_verbose_fit_logs_val_accuracy(self, community_task, caplog):
        graph, features, labels = community_task
        train_mask, val_mask = train_val_split(graph.num_vertices, 0.5, seed=0)
        model, trainer = _trainer(6)
        with caplog.at_level(logging.INFO, logger="repro.nn.training"):
            trainer.fit(graph, features, labels, epochs=1, train_mask=train_mask,
                        val_mask=val_mask, verbose=True)
        assert any("val-acc" in r.message for r in caplog.records)


class TestMaskValidation:
    """A mask is a 1-D bool array with one entry per vertex.  An integer
    0/1 mask used to index rows 0 and 1 for the accuracy while the loss
    read it as boolean; now every malformed mask is refused by name."""

    def _trainer(self):
        return _trainer(0, hidden=16, optimizer=Adam)[1]

    @pytest.mark.parametrize("which", ["train_mask", "val_mask"])
    def test_integer_mask_is_refused(self, community_task, which):
        graph, features, labels = community_task
        mask = train_val_split(graph.num_vertices, 0.5, seed=0)[0].astype(int)
        with pytest.raises(ValueError, match=which):
            self._trainer().train_epoch(graph, features, labels, **{which: mask})

    @pytest.mark.parametrize("rows", [149, 151])
    def test_wrong_length_mask_is_refused(self, community_task, rows):
        graph, features, labels = community_task
        mask = np.ones(rows, dtype=bool)
        with pytest.raises(ValueError, match="train_mask .* 150 entries"):
            self._trainer().train_epoch(graph, features, labels, train_mask=mask)

    def test_two_dimensional_mask_is_refused(self, community_task):
        graph, features, labels = community_task
        mask = np.ones((150, 1), dtype=bool)
        with pytest.raises(ValueError, match="val_mask"):
            self._trainer().train_epoch(graph, features, labels, val_mask=mask)


class TestTrainerObservability:
    def test_epoch_events_emitted_and_valid(self, community_task, tmp_path):
        graph, features, labels = community_task
        train_mask, val_mask = train_val_split(graph.num_vertices, 0.5, seed=0)
        log = EventLog(str(tmp_path / "run.jsonl"))
        _, trainer = _trainer(0, hidden=16, optimizer=Adam, dropout=0.5,
                              event_log=log)
        trainer.fit(graph, features, labels, epochs=3, train_mask=train_mask,
                    val_mask=val_mask)
        log.close()
        assert len(log) == 3
        validate_events(log.events)
        event = log.events[-1]
        assert event["epoch"] == 2
        assert event["val_accuracy"] is not None
        # Per-layer signals cover both layers.
        assert set(event["grad_norms"]) == {"0", "1"}
        assert set(event["weight_norms"]) == {"0", "1"}
        assert event["grad_norms"]["0"]["weight"] > 0.0
        # Nothing consumes the gradient w.r.t. the input features, so the
        # first layer reports no h_in norm; every later layer does.
        assert "h_in" not in event["grad_norms"]["0"]
        assert event["grad_norms"]["1"]["h_in"] > 0.0
        # Schema 2: sparsity lives in TrainingHistory, S3 pricing in perf/.
        assert "sparsity" not in event and "compression" not in event
        assert event["health_issues"] == []
        assert event["wall_time_s"] > 0.0

    def test_event_log_without_profile_sparsity(
        self, community_task, tmp_path, monkeypatch
    ):
        # An observed epoch measures no sparsity unless the profile is on.
        def measured(_):
            raise AssertionError("sparsity measured with the profile off")

        monkeypatch.setattr(training, "sparsity_of", measured)
        graph, features, labels = community_task
        log = EventLog(str(tmp_path / "run.jsonl"))
        _, trainer = _trainer(1, profile_sparsity=False, event_log=log,
                              rules=RuleEngine(default_train_rules()))
        trainer.train_epoch(graph, features, labels)
        log.close()
        assert "sparsity" not in log.events[0]
        assert trainer.history.sparsity.layers() == []  # profile stayed off

    def test_injected_nan_detected_within_one_epoch(self, community_task):
        graph, features, labels = community_task
        model, trainer = _trainer(3, rules=RuleEngine(default_train_rules()))
        trainer.train_epoch(graph, features, labels)
        model.layers[1].weight[0, 0] = np.nan  # corrupt a weight
        with pytest.raises(FatalRuleError) as excinfo:
            trainer.train_epoch(graph, features, labels)
        assert excinfo.value.epoch == 1
        assert [alert.rule for alert in excinfo.value.alerts] == ["non_finite"]
        assert "first non-finite value: layer " in str(excinfo.value)

    def test_failing_epoch_still_logged(self, community_task, tmp_path):
        # The event log keeps the evidence of the epoch that failed.
        graph, features, labels = community_task
        log = EventLog(str(tmp_path / "run.jsonl"))
        model, trainer = _trainer(3, event_log=log,
                                  rules=RuleEngine(default_train_rules()))
        model.layers[0].weight[:] = np.nan
        with pytest.raises(FatalRuleError):
            trainer.train_epoch(graph, features, labels)
        log.close()
        assert len(log) == 1
        assert "slo:non_finite" in log.events[0]["health_issues"]

    def test_default_trainer_pays_nothing(self, community_task, monkeypatch):
        # With event_log and rules left off, the observation
        # hook, the live publisher, and the norm capture must never run.
        graph, features, labels = community_task
        model, trainer = _trainer(4)

        def boom(*args, **kwargs):  # pragma: no cover - must not fire
            raise AssertionError("observability ran on the default path")

        monkeypatch.setattr(trainer, "_observe_epoch", boom)
        monkeypatch.setattr(trainer, "_publish_live", boom)
        monkeypatch.setattr(GNNModel, "grad_norms", staticmethod(boom))
        monkeypatch.setattr(GNNModel, "weight_norms", boom)
        trainer.train_epoch(graph, features, labels)


class TestTrainerLiveTelemetry:
    def test_train_gauges_published(self, community_task, telemetry):
        graph, features, labels = community_task
        model, trainer = _trainer(5)
        with telemetry() as (_, metrics):
            result = trainer.train_epoch(graph, features, labels)
            trainer.train_epoch(graph, features, labels)
            snap = metrics.snapshot()
        assert snap["train.epoch"]["value"] == 1.0  # last epoch wins
        assert snap["train.loss"]["value"] > 0.0
        assert 0.0 <= snap["train.train_accuracy"]["value"] <= 1.0
        assert snap["train.wall_time_s"]["value"] > 0.0
        assert snap["train.epoch_time_s"]["count"] == 2
        assert result.loss > 0.0

    def test_rules_fire_and_mark_events(self, community_task, tmp_path):
        graph, features, labels = community_task
        log = EventLog(str(tmp_path / "run.jsonl"))
        rules = RuleEngine("loss_cap: train.loss < 1e-6")
        model, trainer = _trainer(5, event_log=log, rules=rules)
        trainer.train_epoch(graph, features, labels)
        trainer.train_epoch(graph, features, labels)
        log.close()
        assert (rules.ok, rules.evaluations) == (False, 2)
        # Fired rules ride along as slo: markers in the event stream.
        assert log.events[0]["health_issues"] == ["slo:loss_cap"]
        validate_events(log.events)

    def test_default_and_file_rules_both_mark_events(
        self, community_task, tmp_path, monkeypatch
    ):
        # One engine over the default and a file's rules: a default
        # rule's marker never replaces the file rule's, or the reverse.
        real = F.cross_entropy_and_correct
        script = iter([1.0, 5.0])  # epoch 1 diverges past 4x the best

        def scripted(logits, labels, mask=None, count=None):
            _, grad, correct = real(logits, labels, mask, count)
            return next(script), grad, correct

        monkeypatch.setattr(F, "cross_entropy_and_correct", scripted)
        graph, features, labels = community_task
        log = EventLog(str(tmp_path / "run.jsonl"))
        rules = RuleEngine(default_train_rules()
                           + parse_rules("always: train.loss < 1e-9"))
        _, trainer = _trainer(5, event_log=log, rules=rules)
        trainer.train_epoch(graph, features, labels)
        with pytest.raises(FatalRuleError):
            trainer.train_epoch(graph, features, labels)
        log.close()
        assert [e["health_issues"] for e in log.events] == [
            ["slo:always"], ["slo:loss_divergence", "slo:always"],
        ]

    def test_rules_without_registry_see_train_plane(self, community_task):
        # No telemetry enabled: the trainer synthesizes the train.*
        # snapshot so rules still evaluate.
        graph, features, labels = community_task
        rules = RuleEngine("loss_cap: train.loss < 1e-6\nrss: proc.rss_bytes < 1")
        _, trainer = _trainer(5, rules=rules)
        trainer.train_epoch(graph, features, labels)
        assert rules.active == ["loss_cap"]  # proc.* absent -> skipped

    def test_compliant_rules_stay_quiet(self, community_task, tmp_path):
        graph, features, labels = community_task
        log = EventLog(None)
        rules = RuleEngine("loss_cap: train.loss < 1e9")
        model, trainer = _trainer(5, event_log=log, rules=rules)
        trainer.train_epoch(graph, features, labels)
        log.close()
        assert rules.ok
        assert log.events[0]["health_issues"] == []


class _CountingKernel(BasicKernel):
    """BasicKernel that records the width of every aggregation pass."""

    def __init__(self):
        super().__init__()
        self.forward_widths = []
        self.backward_widths = []

    def aggregate(self, graph, h, aggregator="gcn"):
        self.forward_widths.append(h.shape[1])
        return super().aggregate(graph, h, aggregator)

    def aggregate_backward(self, graph, grad_a, aggregator="gcn", live=None):
        self.backward_widths.append(grad_a.shape[1])
        return super().aggregate_backward(graph, grad_a, aggregator, live=live)


def _reference_epoch(model, optimizer, graph, features, labels):
    """The epoch as it was before anything was skipped: every layer
    aggregates its input first, every epoch, and the input gradient is
    formed all the way down to the features."""
    h, stash = features, []
    for layer in model.layers:
        a = aggregate(graph, h, layer.aggregator)
        pre = a @ layer.weight + layer.bias
        h = np.maximum(pre, 0.0) if layer.activation else pre
        stash.append((a, pre))
    loss, grad = F.cross_entropy(h, labels)
    grads = [None] * model.num_layers
    for idx in range(model.num_layers - 1, -1, -1):
        layer = model.layers[idx]
        a, pre = stash[idx]
        grad_pre = grad * (pre > 0) if layer.activation else grad
        grad = aggregate_backward(graph, grad_pre @ layer.weight.T, layer.aggregator)
        grads[idx] = LayerGrads(weight=a.T @ grad_pre, bias=grad_pre.sum(axis=0),
                                h_in=grad)
    optimizer.step(grads)
    return loss


class TestFirstAggregationReuse:
    """``Â · features`` is a constant: aggregated once per (graph,
    features) pair, keyed by object identity."""

    def _trainer(self, model=None):
        """A counting trainer of ``model`` (default 8 -> 16 -> 16)."""
        model = model or build_model("gcn", 8, 16, 16, num_layers=2, seed=0)
        kernel = _CountingKernel()
        return Trainer(model, SGD(model, lr=0.1), aggregation_kernel=kernel), kernel

    def test_same_objects_aggregate_features_once(self, community_task):
        graph, features, labels = community_task
        trainer, kernel = self._trainer()
        trainer.fit(graph, features, labels, epochs=3)
        # Width 8 is the features' own: once, in the first epoch.
        assert kernel.forward_widths == [8, 16, 16, 16]
        assert kernel.backward_widths == [16, 16, 16]

    def test_copied_features_are_aggregated_again(self, community_task):
        graph, features, labels = community_task
        trainer, kernel = self._trainer()
        trainer.train_epoch(graph, features, labels)
        trainer.train_epoch(graph, features.copy(), labels)
        assert kernel.forward_widths.count(8) == 2

    def test_fresh_graph_object_is_aggregated_again(self, community_task):
        graph, features, labels = community_task
        trainer, kernel = self._trainer()
        trainer.train_epoch(graph, features, labels)
        fresh = CSRGraph(graph.indptr, graph.indices, name=graph.name)
        trainer.train_epoch(fresh, features, labels)
        trainer.train_epoch(fresh, features, labels)
        assert kernel.forward_widths.count(8) == 2

    def test_first_layer_dropout_disables_reuse(self, community_task):
        graph, features, labels = community_task
        model = GNNModel([
            GNNLayer(8, 16, dropout=0.5, seed=0),
            GNNLayer(16, 16, activation=False, seed=1),
        ])
        trainer, kernel = self._trainer(model)
        trainer.fit(graph, features, labels, epochs=3)
        assert kernel.forward_widths.count(8) == 3

    def test_bitwise_equal_to_recomputing_everything(self, community_task):
        """Reusing ``Â · features`` and skipping ``∂L/∂features`` change
        no value: loss and weights equal the recompute-everything epoch
        bit for bit (8 -> 16 -> 16: no layer narrows, so no layer runs
        transform-first and reassociates)."""
        graph, features, labels = community_task
        model = build_model("gcn", 8, 16, 16, num_layers=2, seed=7)
        reference = build_model("gcn", 8, 16, 16, num_layers=2, seed=7)
        trainer = Trainer(model, Adam(model, lr=0.02))
        optimizer = Adam(reference, lr=0.02)
        for _ in range(3):
            result = trainer.train_epoch(graph, features, labels)
            assert result.loss == _reference_epoch(reference, optimizer, graph,
                                                   features, labels)
        for layer, ref_layer in zip(model.layers, reference.layers):
            np.testing.assert_array_equal(layer.weight, ref_layer.weight)
            np.testing.assert_array_equal(layer.bias, ref_layer.bias)


class TestInference:
    def test_logits_shape(self, community_task):
        graph, features, _ = community_task
        model = build_model("gcn", 8, 16, 3, num_layers=2)
        assert model.predict(graph, features).shape == (graph.num_vertices, 3)


class TestSplit:
    def test_disjoint_and_complete(self):
        train, val = train_val_split(100, 0.6, seed=0)
        assert (train.sum(), val.sum()) == (60, 40)
        assert not (train & val).any()

    def test_invalid_fraction(self):
        for fraction in (0.0, 1.0):
            with pytest.raises(ValueError):
                train_val_split(10, fraction)
