"""The training numerics guards, as rules.

``repro train --health`` loads :data:`repro.obs.rules.DEFAULT_TRAIN_RULES`:
``non_finite`` and ``loss_divergence`` are fatal, ``convergence_stall``
warns.  Each case injects a fault into a real :class:`Trainer` run (a
scripted loss, a corrupted norm or logit) and checks the epoch the
first alert fires on, which rule it is, and whether the run stops.
"""

import numpy as np
import pytest

from repro import obs
from repro.graphs import planted_partition_graph
from repro.nn import SGD, Trainer, build_model
from repro.nn import functional
from repro.nn.model import GNNModel
from repro.nn.training import _non_finite
from repro.obs.rules import FatalRuleError, RuleEngine, default_train_rules


@pytest.fixture(scope="module")
def task():
    graph, labels = planted_partition_graph(60, 3, p_in=0.2, p_out=0.02, seed=0)
    features = np.random.default_rng(0).standard_normal((60, 8)).astype(np.float32)
    return graph, features, labels


def guarded_trainer(seed=3):
    model = build_model("gcn", 8, 8, 3, num_layers=2, seed=seed)
    engine = RuleEngine(default_train_rules())
    return Trainer(model, SGD(model, lr=0.05), rules=engine), engine


def script_losses(monkeypatch, losses):
    """Replace each epoch's loss value (gradients stay real)."""
    real = functional.cross_entropy_and_correct
    script = iter(losses)

    def scripted(logits, labels, mask=None, count=None):
        _, grad, correct = real(logits, labels, mask, count)
        return next(script), grad, correct

    monkeypatch.setattr(functional, "cross_entropy_and_correct", scripted)


def run(trainer, task, epochs):
    for _ in range(epochs):
        trainer.train_epoch(*task)


def gauge(value):
    return {"type": "gauge", "value": value}


class TestNonFinite:
    def test_nan_loss_fails_fast(self, task, monkeypatch):
        script_losses(monkeypatch, [1.0, 0.9, 0.8, float("nan")])
        trainer, _ = guarded_trainer()
        run(trainer, task, 3)
        with pytest.raises(FatalRuleError) as excinfo:
            trainer.train_epoch(*task)
        error = excinfo.value
        assert (error.epoch, [a.rule for a in error.alerts]) == (3, ["non_finite"])
        assert "epoch 3" in str(error)
        assert "first non-finite value: loss (nan)" in str(error)
        assert len(trainer.history.epochs) == 3  # the failed epoch is not kept

    def test_nan_weight_norm_names_layer_and_epoch(self, task, monkeypatch):
        trainer, _ = guarded_trainer()
        real = trainer.model.weight_norms
        calls = []

        def corrupted():
            norms = real()
            calls.append(len(calls))
            if len(calls) == 3:  # epoch 2
                norms["1"]["weight"] = float("nan")
            return norms

        monkeypatch.setattr(trainer.model, "weight_norms", corrupted)
        run(trainer, task, 2)
        with pytest.raises(FatalRuleError) as excinfo:
            trainer.train_epoch(*task)
        message = str(excinfo.value)
        assert [a.rule for a in excinfo.value.alerts] == ["non_finite"]
        assert "epoch 2" in message
        assert "first non-finite value: layer 1 weight.weight" in message

    def test_inf_grad_norm_detected(self, task, monkeypatch):
        real = GNNModel.grad_norms

        def corrupted(grads):
            norms = real(grads)
            norms["0"]["weight"] = float("inf")
            return norms

        monkeypatch.setattr(GNNModel, "grad_norms", staticmethod(corrupted))
        trainer, _ = guarded_trainer()
        with pytest.raises(FatalRuleError) as excinfo:
            trainer.train_epoch(*task)
        assert excinfo.value.epoch == 0
        assert excinfo.value.alerts[0].value == 1.0  # one non-finite value
        assert "layer 0 grad.weight" in str(excinfo.value)

    def test_non_finite_logits_detected(self, task, monkeypatch):
        trainer, _ = guarded_trainer()
        real = trainer.model.forward

        def corrupted(*args, **kwargs):
            logits, caches = real(*args, **kwargs)
            logits[1, 2] = np.nan
            return logits, caches

        monkeypatch.setattr(trainer.model, "forward", corrupted)
        with pytest.raises(FatalRuleError) as excinfo:
            trainer.train_epoch(*task)
        assert excinfo.value.epoch == 0
        assert [a.rule for a in excinfo.value.alerts] == ["non_finite"]
        # The count covers every non-finite logit, not one per tensor.
        logits = np.zeros((4, 3), dtype=np.float32)
        logits[1, 2] = np.nan
        logits[3, 0] = np.inf
        assert _non_finite(0.5, logits, {}, {}) == (2, "logits (16.7% non-finite)")

    def test_clean_epoch_no_issues(self, task):
        trainer, engine = guarded_trainer()
        run(trainer, task, 3)
        assert engine.ok and engine.evaluations == 3


class TestLossTrajectory:
    def test_divergence_raises(self, task, monkeypatch):
        script_losses(monkeypatch, [1.0, 5.0])
        trainer, _ = guarded_trainer()
        trainer.train_epoch(*task)
        with pytest.raises(FatalRuleError) as excinfo:
            trainer.train_epoch(*task)
        alert = excinfo.value.alerts[0]
        assert (alert.rule, alert.value, excinfo.value.epoch) == (
            "loss_divergence", 5.0, 1)
        assert "first non-finite" not in str(excinfo.value)

    def test_first_epoch_never_divergent(self, task, monkeypatch):
        script_losses(monkeypatch, [1e6])
        trainer, engine = guarded_trainer()
        trainer.train_epoch(*task)
        assert engine.ok

    def test_stall_is_warning_not_error(self, task, monkeypatch):
        script_losses(monkeypatch, [1.0] * 21)  # never improves
        trainer, engine = guarded_trainer()
        run(trainer, task, 20)
        assert engine.ok  # 19 epochs since the best: still inside the window
        trainer.train_epoch(*task)  # epoch 20 warns, and the run goes on
        [alert] = engine.alerts
        assert (alert.rule, alert.fatal, alert.evaluation) == (
            "convergence_stall", False, 21)

    def test_stall_keeps_reporting(self, task, monkeypatch):
        # Long-running breaches keep reporting: epochs 20, 21 and 22.
        script_losses(monkeypatch, [1.0] * 23)
        trainer, engine = guarded_trainer()
        run(trainer, task, 23)
        assert [a.evaluation for a in engine.alerts] == [21, 22, 23]
        assert {a.rule for a in engine.alerts} == {"convergence_stall"}

    def test_improvement_resets_stall_clock(self, task, monkeypatch):
        script_losses(monkeypatch, [0.9 ** (k + 1) for k in range(30)])
        trainer, engine = guarded_trainer()
        run(trainer, task, 30)
        assert engine.ok

    def test_fail_fast_off_records_and_continues(self):
        # The engine only judges; stopping is the trainer's job, so an
        # engine fed directly records the fatal alert and goes on.
        engine = RuleEngine(default_train_rules())
        [alert] = engine.evaluate({"train.nonfinite": gauge(1.0)})
        assert alert.fatal and not engine.ok
        assert "non_finite" in engine.summary()
        assert engine.evaluate({"train.nonfinite": gauge(0.0)}) == []


class TestMetricsPublication:
    def test_health_metrics_published_when_enabled(self, task, monkeypatch, telemetry):
        script_losses(monkeypatch, [1.0, float("nan")])
        trainer, _ = guarded_trainer()
        with telemetry() as (_, metrics):
            trainer.train_epoch(*task)
            with pytest.raises(FatalRuleError):
                trainer.train_epoch(*task)
            snap = metrics.snapshot()
        assert {name: snap[name]["value"] for name in (
            "train.nonfinite", "train.epochs_since_best", "alerts.evaluations",
            "alerts.non_finite.fired", "alerts.fired")} == {
            "train.nonfinite": 1.0, "train.epochs_since_best": 1.0,
            "alerts.evaluations": 2.0, "alerts.non_finite.fired": 1.0,
            "alerts.fired": 1.0}
        # Absent on the first epoch and on a non-finite loss.
        assert "train.loss_over_best" not in snap

    def test_ratio_from_an_earlier_epoch_is_never_judged(
        self, task, monkeypatch, telemetry
    ):
        # The registry still holds epoch 1's ratio when epoch 2's loss is
        # NaN; the rule skips epoch 2 instead of judging that value.
        script_losses(monkeypatch, [1.0, 2.0, float("nan")])
        model = build_model("gcn", 8, 8, 3, num_layers=2, seed=3)
        engine = RuleEngine("warn: train.loss_over_best < 1.5")
        trainer = Trainer(model, SGD(model, lr=0.05), rules=engine)
        with telemetry():
            run(trainer, task, 3)
        assert [a.evaluation for a in engine.alerts] == [2]

    def test_disabled_registry_untouched(self, task, monkeypatch):
        script_losses(monkeypatch, [float("nan")])
        trainer, engine = guarded_trainer()
        with pytest.raises(FatalRuleError):
            trainer.train_epoch(*task)
        assert engine.alerts[0].rule == "non_finite"
        assert obs.get_metrics().snapshot() == {}


class TestIssueDocument:
    def test_to_dict_round_trip(self):
        engine = RuleEngine(default_train_rules())
        [alert] = engine.evaluate({"train.loss_over_best": gauge(4.5)})
        assert alert.to_dict() == {
            "rule": "loss_divergence", "metric": "train.loss_over_best",
            "stat": "value", "op": "<=", "threshold": 4.0, "value": 4.5,
            "consecutive": 1, "evaluation": 1, "fatal": True,
        }
        assert str(alert).startswith("[fatal] loss_divergence:")
