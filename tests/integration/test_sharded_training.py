"""Differential suite for partition-parallel sharded training.

The sharded trainer re-executes full-batch GCN training as K cooperating
shard workers over one shared-memory arena.  Its contract: the math is
the *same* training run — the per-shard segment-reduce accumulates each
row as the full-graph kernel does, and the parent sums partial gradients
in a fixed worker order.  This suite pins that equivalence against the single-process ``Trainer``,
pins the process backend bitwise against the in-process serial backend,
and pins the one phase schedule both backends run.
"""

import os
import threading

import numpy as np
import pytest

from repro.graphs import load_dataset, synthetic_features
from repro.nn import Adam, Trainer, build_model
from repro.parallel import SHARD_BACKENDS, ShardedTrainer, ShardRuntime
from repro.parallel.sharded import epoch_phases

FEATURES = 12
HIDDEN = 16
CLASSES = 5
EPOCHS = 4

#: The sharded forward matches the full-graph kernel's accumulation order
#: shard-locally, but the parent sums dW partials across shards in
#: float64 — final fp32 weights drift by a few ulp versus the fused
#: single-process update.
LOSS_RTOL = 1e-6
WEIGHT_ATOL = 1e-5


@pytest.fixture(scope="module")
def graph():
    return load_dataset("products", scale=0.05, seed=3)


def _inputs(graph):
    features = synthetic_features(graph, FEATURES, seed=4, sparsity=0.3)
    rng = np.random.default_rng(8)
    return features, rng.integers(0, CLASSES, graph.num_vertices).astype(np.int64)


@pytest.fixture(scope="module")
def features(graph):
    return _inputs(graph)[0]


@pytest.fixture(scope="module")
def labels(graph):
    return _inputs(graph)[1]


def _model(graph, seed=0):
    return build_model("gcn", FEATURES, HIDDEN, CLASSES, seed=seed)


def _trainer(graph, model=None, num_shards=2, backend="process"):
    model = model or _model(graph)
    return ShardedTrainer(
        graph, model, Adam(model, lr=0.01), num_shards=num_shards,
        backend=backend,
    )


def _assert_same_losses(history, reference):
    np.testing.assert_allclose(history.losses(), reference.losses(), rtol=LOSS_RTOL)


def _assert_same_weights(model, ref_model):
    for ref_layer, layer in zip(ref_model.layers, model.layers):
        np.testing.assert_allclose(layer.weight, ref_layer.weight, atol=WEIGHT_ATOL)
        np.testing.assert_allclose(layer.bias, ref_layer.bias, atol=WEIGHT_ATOL)


def _reference(graph, features, labels, epochs=EPOCHS, **fit_kwargs):
    model = _model(graph)
    trainer = Trainer(model, Adam(model, lr=0.01))
    history = trainer.fit(graph, features, labels, epochs=epochs, **fit_kwargs)
    return history, model


def _sharded(
    graph, features, labels, epochs=EPOCHS, fit_kwargs=None, **kwargs
):
    model = _model(graph)
    kwargs.setdefault("num_shards", 3)
    trainer = ShardedTrainer(graph, model, Adam(model, lr=0.01), **kwargs)
    with trainer:
        history = trainer.fit(
            features, labels, epochs=epochs, **(fit_kwargs or {})
        )
        logits = trainer.logits()
    return history, model, trainer, logits


class TestMatchesSingleProcessTrainer:
    @pytest.mark.parametrize("backend", SHARD_BACKENDS)
    def test_loss_curves_match(self, graph, features, labels, backend):
        reference, _ = _reference(graph, features, labels)
        history, _, _, _ = _sharded(
            graph, features, labels, backend=backend
        )
        _assert_same_losses(history, reference)

    def test_weights_match(self, graph, features, labels):
        _, ref_model = _reference(graph, features, labels)
        _, model, _, _ = _sharded(graph, features, labels, backend="serial")
        _assert_same_weights(model, ref_model)

    def test_accuracies_match(self, graph, features, labels):
        rng = np.random.default_rng(2)
        train_mask = rng.random(graph.num_vertices) < 0.6
        val_mask = ~train_mask
        reference, _ = _reference(
            graph, features, labels,
            train_mask=train_mask, val_mask=val_mask,
        )
        history, _, _, _ = _sharded(
            graph, features, labels, backend="serial",
            fit_kwargs={"train_mask": train_mask, "val_mask": val_mask},
        )
        for ref_epoch, epoch in zip(reference.epochs, history.epochs):
            assert epoch.train_accuracy == pytest.approx(
                ref_epoch.train_accuracy, abs=1e-12
            )
            assert epoch.val_accuracy == pytest.approx(
                ref_epoch.val_accuracy, abs=1e-12
            )

    @pytest.mark.parametrize("method", ("contiguous", "bfs", "greedy"))
    def test_every_partition_method_trains_the_same_model(
        self, graph, features, labels, method
    ):
        reference, _ = _reference(graph, features, labels)
        history, _, _, _ = _sharded(
            graph, features, labels, backend="serial",
            partition_method=method,
        )
        _assert_same_losses(history, reference)

    def test_narrowing_hidden_layer_matches(
        self, graph, features, labels, stack_model
    ):
        """12 -> 24 -> 16 -> 5: ``Trainer`` and every shard run the
        narrowing hidden and output layers transform-first
        (``Â (h W)``); the shards compute ``h W`` on their own rows only
        — the same training run at the unchanged tolerances."""
        self._check_stack(graph, features, labels,
                          stack_model, (FEATURES, 24, HIDDEN, CLASSES))

    def test_widening_hidden_layer_matches(
        self, graph, features, labels, stack_model
    ):
        """12 -> 8 -> 16 -> 5: the widening hidden layer aggregates
        first (``(Â h) W``, exchanging ``h`` rows) next to a
        transform-first output layer."""
        self._check_stack(graph, features, labels,
                          stack_model, (FEATURES, 8, HIDDEN, CLASSES))

    @staticmethod
    def _check_stack(graph, features, labels, stack, widths):
        ref_model = stack(widths)
        reference = Trainer(ref_model, Adam(ref_model, lr=0.01)).fit(
            graph, features, labels, epochs=EPOCHS
        )
        model = stack(widths)
        with _trainer(graph, model, num_shards=3, backend="serial") as trainer:
            history = trainer.fit(features, labels, epochs=EPOCHS)
        _assert_same_losses(history, reference)
        _assert_same_weights(model, ref_model)


class TestProcessBitwiseMatchesSerial:
    """Shared memory changes *where* arrays live, never their values:
    the process backend must reproduce the in-process serial schedule
    bit for bit."""

    def test_losses_and_logits_bitwise(self, graph, features, labels):
        serial_hist, serial_model, _, serial_logits = _sharded(
            graph, features, labels, backend="serial"
        )
        proc_hist, proc_model, _, proc_logits = _sharded(
            graph, features, labels, backend="process"
        )
        assert serial_hist.losses() == proc_hist.losses()
        np.testing.assert_array_equal(serial_logits, proc_logits)
        for serial_layer, proc_layer in zip(
            serial_model.layers, proc_model.layers
        ):
            assert np.array_equal(serial_layer.weight, proc_layer.weight)
            assert np.array_equal(serial_layer.bias, proc_layer.bias)


class TestOneExactSchedule:
    """Both backends run :func:`epoch_phases`: one exact schedule with no
    epoch in it, so every layer ``k >= 1`` exchanges forward and backward
    on every shard in every epoch."""

    def test_serial_phase_calls_are_epoch_phases(
        self, graph, features, labels, monkeypatch
    ):
        layers, shards, epochs = 3, 3, 5
        calls = []

        def recording(name):
            phase = getattr(ShardRuntime, name)

            def wrapper(runtime, *args):
                calls.append((name, args, runtime.part))
                return phase(runtime, *args)
            return wrapper

        # Wrapped on the class, as perfbench's traced pass does: the
        # backends must look each phase up at call time to be seen.
        for name in {phase for phase, _, _ in epoch_phases(layers)}:
            monkeypatch.setattr(ShardRuntime, name, recording(name))
        model = build_model(
            "gcn", FEATURES, HIDDEN, CLASSES, num_layers=layers, seed=0
        )
        expected = [
            (phase, args, part)
            for phase, args, _ in epoch_phases(layers)
            for part in range(shards)
        ]
        with _trainer(graph, model, shards, "serial") as trainer:
            trainer.fit(features, labels, epochs=0)
            for _ in range(epochs):
                calls.clear()
                trainer.train_epoch()
                assert calls == expected
                assert trainer.last_exchanges == 2 * (layers - 1) * shards


class TestZeroCopy:
    """The worker payload is (part id, bundle spec, config) — O(#arrays)
    bytes, not O(graph).  If someone reintroduces graph pickling, these
    bounds blow up by orders of magnitude."""

    def test_setup_payload_is_bounded(self, graph, features, labels):
        _, _, trainer, _ = _sharded(
            graph, features, labels, backend="process", epochs=1
        )
        assert len(trainer.setup_bytes) == 3
        for nbytes in trainer.setup_bytes:
            assert 0 < nbytes < 32_768

    def test_setup_payload_is_graph_size_independent(self):
        sizes = {}
        for scale in (0.05, 0.2):
            graph = load_dataset("products", scale=scale, seed=3)
            _, _, trainer, _ = _sharded(
                graph, *_inputs(graph), backend="process", epochs=1
            )
            sizes[scale] = max(trainer.setup_bytes)
        # 4x the vertices, same payload (within pickle framing noise).
        assert abs(sizes[0.2] - sizes[0.05]) < 512

    def test_per_epoch_message_is_model_sized(self, graph, features, labels):
        """The per-epoch message used to be the pickled weights, O(model)
        bytes; the weights now travel in the shared ``w{k}`` / ``b{k}``
        boards and the message is the epoch number.  So it is the same
        few bytes whatever the model's size: hidden 16 and 256 alike."""
        sizes = []
        for hidden in (16, 256):
            model = build_model("gcn", FEATURES, hidden, CLASSES, seed=0)
            with _trainer(graph, model) as trainer:
                trainer.fit(features, labels, epochs=2)
                sizes.append(trainer.epoch_message_bytes)
        assert sizes[0] == sizes[1]
        assert 0 < sizes[0] < 64

    @pytest.mark.parametrize("backend", SHARD_BACKENDS)
    def test_worker_results_are_scalars(
        self, graph, features, labels, backend, monkeypatch
    ):
        """Gradients stay in the bundle: what a worker reports is scalars."""
        seen = []
        combine = ShardedTrainer._combine

        def spy(self, epoch, results):
            seen.extend(results)
            return combine(self, epoch, results)

        monkeypatch.setattr(ShardedTrainer, "_combine", spy)
        _sharded(graph, features, labels, backend=backend, epochs=2)
        assert len(seen) == 2 * 3
        for result in seen:
            for key, value in result.items():
                assert np.isscalar(value), key

    def test_parent_reads_gradient_partials_from_the_bundle(
        self, graph, features, labels
    ):
        """The optimizer steps on the workers' partial boards summed in
        worker order, read in place from the shared segment."""
        model = _model(graph)
        optimizer = Adam(model, lr=0.01)
        stepped = []
        step = optimizer.step

        def spy(grads):
            stepped.append([(g.weight.copy(), g.bias.copy()) for g in grads])
            return step(grads)

        optimizer.step = spy
        with ShardedTrainer(
            graph, model, optimizer, num_shards=3, backend="process"
        ) as trainer:
            trainer.fit(features, labels, epochs=2)
            bundle = trainer._bundle
            segment = np.frombuffer(bundle._buffer, dtype=np.uint8)
            for k, grads in enumerate(stepped[-1]):
                for name, grad in zip(("gw", "gb"), grads):
                    partials = [bundle.view(f"s{p}.{name}{k}") for p in range(3)]
                    total = np.zeros(grad.shape, dtype=np.float64)
                    for partial in partials:
                        assert np.shares_memory(partial, segment)
                        total += partial
                    assert np.array_equal(total.astype(np.float32), grad)


class TestPersistentPool:
    def test_workers_survive_across_epochs(self, graph, features, labels):
        with _trainer(graph) as trainer:
            trainer.fit(features, labels, epochs=1)
            first = sorted(trainer.worker_pids())
            trainer.train_epoch()
            trainer.train_epoch()
            second = sorted(trainer.worker_pids())
        assert first == second
        assert len(first) == 2
        assert os.getpid() not in first

    def test_close_is_idempotent_and_joins_workers(
        self, graph, features, labels
    ):
        trainer = _trainer(graph)
        trainer.fit(features, labels, epochs=1)
        workers = list(trainer._workers)
        trainer.close()
        trainer.close()
        for worker in workers:
            assert not worker.is_alive()

    def test_no_thread_beside_the_pool(self, graph, features, labels):
        """Pipes, not queues: no feeder thread while the pool runs, and
        none left after ``close()``."""
        before = set(threading.enumerate())
        with _trainer(graph) as trainer:
            trainer.fit(features, labels, epochs=2)
            assert set(threading.enumerate()) <= before
        assert set(threading.enumerate()) <= before


class TestObservability:
    def test_shard_metrics_and_spans_published(
        self, graph, features, labels, telemetry
    ):
        with telemetry() as (tracer, metrics):
            _sharded(graph, features, labels, backend="process", epochs=2)
            snap = metrics.snapshot()
            span_names = {s.to_record()["name"] for s in tracer.spans()}
        assert "shard.partition" in span_names
        assert "shard.epoch" in span_names
        for key in (
            "shard.workers",
            "shard.partition.edge_cut",
            "shard.partition.cut_fraction",
            "shard.partition.balance",
            "shard.setup_bytes_max",
            "shard.halo_bytes",
            "shard.exchanges",
            "shard.epoch_time_s",
            "shard.epoch_message_bytes",
        ):
            assert key in snap, f"missing metric {key}"
        assert snap["shard.halo_bytes"]["value"] > 0


class TestValidation:
    def test_rejects_unknown_backend(self, graph):
        model = _model(graph)
        for backend in ("mpi", "thread"):
            with pytest.raises(ValueError):
                ShardedTrainer(graph, model, Adam(model), backend=backend)

    @pytest.mark.parametrize("which", ["train_mask", "val_mask"])
    def test_rejects_a_malformed_mask(self, graph, features, labels, which):
        """The check ``Trainer`` makes, through the same helper: an
        integer 0/1 mask and a mask of the wrong length are refused by
        name before any shard is built."""
        n = graph.num_vertices
        for mask in (np.ones(n, dtype=int), np.ones(n - 1, dtype=bool)):
            with _trainer(graph, backend="serial") as trainer:
                with pytest.raises(ValueError, match=which):
                    trainer.fit(features, labels, epochs=1, **{which: mask})

    def test_rejects_dropout(self, graph):
        model = build_model(
            "gcn", FEATURES, HIDDEN, CLASSES, dropout=0.5, seed=0
        )
        with pytest.raises(ValueError, match="dropout"):
            ShardedTrainer(graph, model, Adam(model))

    def test_rejects_empty_train_mask(self, graph, features, labels):
        trainer = _trainer(graph, backend="serial")
        with pytest.raises(ValueError, match="mask"):
            trainer.fit(
                features, labels, epochs=1,
                train_mask=np.zeros(graph.num_vertices, dtype=bool),
            )

    def test_train_epoch_before_fit_raises(self, graph):
        model = _model(graph)
        trainer = ShardedTrainer(graph, model, Adam(model, lr=0.01))
        with pytest.raises(RuntimeError):
            trainer.train_epoch()

    def test_single_shard_works(self, graph, features, labels):
        reference, _ = _reference(graph, features, labels, epochs=2)
        history, _, trainer, _ = _sharded(
            graph, features, labels, backend="serial",
            num_shards=1, epochs=2,
        )
        _assert_same_losses(history, reference)
        assert trainer.last_halo_bytes == 0
