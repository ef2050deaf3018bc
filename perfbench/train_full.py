"""``train-full``: full-batch training on one worker, the paper's regime.

``Trainer`` + ``BasicKernel`` + ``Adam`` on the products twin at scale 4
(16,384 vertices, ~0.73 M edges; mean degree 45).  Aggregation forward
and its transposed backward do most of the work; ``parallel/`` and
``serve/`` do none.  The 10x twin of the serve workloads would leave six
epochs in a run; this one leaves about thirty.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro import obs
from repro.kernels import BasicKernel
from repro.nn import Adam, Trainer
from repro.nn import functional

from .common import (
    Inputs, Run, fresh_graph, make_inputs, median, peak_rss_mb,
    percentile, student, tail_percentile, timed,
)
from .trace import Recorder

SCALE = 4.0
LEARNING_RATE = 0.01
#: Traced run: share of ``--seconds`` spent on epochs; the rest times
#: ``predict``.  The untraced run spends all of it on epochs.
TRACED_EPOCH_SHARE = 0.75


def set_up(inputs: Inputs, seed: int):
    """Inputs ready -> first epoch done, on a graph with nothing cached."""
    graph = fresh_graph(inputs.graph)
    model = student(seed)
    kernel = BasicKernel()
    trainer = Trainer(
        model, Adam(model, lr=LEARNING_RATE), aggregation_kernel=kernel
    )
    epoch(trainer, graph, inputs)
    return graph, trainer, kernel


def epoch(trainer: Trainer, graph, inputs: Inputs):
    return trainer.train_epoch(
        graph, inputs.features, inputs.labels,
        train_mask=inputs.train_mask, val_mask=inputs.val_mask,
    )


def install(recorder: Recorder, trainer: Trainer, kernel: BasicKernel) -> None:
    recorder.wrap(trainer, "train_epoch", "nn.epoch")
    for layer in trainer.model.layers:
        recorder.wrap(layer, "forward", "nn.update_fwd")
        recorder.wrap(layer, "backward", "nn.update_bwd")
    recorder.wrap(kernel, "aggregate", "kernels.aggregate_fwd")
    recorder.wrap(kernel, "aggregate_backward", "kernels.aggregate_bwd")
    recorder.wrap(functional, "cross_entropy", "nn.loss")
    recorder.wrap(functional, "accuracy", "nn.loss")
    recorder.wrap(trainer.optimizer, "step", "nn.optimizer")


def measure(run: Run, seconds: float, scale: float = SCALE) -> None:
    inputs = make_inputs(run.seed, scale)
    m = run.metrics
    m["graphs.generate_s"] = inputs.generate_s
    m["graphs.csc_build_s"] = timed(fresh_graph(inputs.graph).csc_arrays)[0]

    setups, (graph, trainer, kernel) = run.timed_setups(
        lambda: set_up(inputs, run.seed)
    )

    # Three kinds of epoch take turns, so that slow drift in the machine
    # hits each alike: plain, traced by this benchmark, and under the
    # program's own telemetry.  The untraced run has only the first.
    kinds = ("plain", "traced", "obs") if run.trace else ("plain",)
    times = {kind: [] for kind in kinds}
    recorder = Recorder()
    share = TRACED_EPOCH_SHARE if run.trace else 1.0
    deadline = time.perf_counter() + seconds * share
    while time.perf_counter() < deadline or len(trainer.history.epochs) < 5:
        for kind in kinds:
            if kind == "traced":
                install(recorder, trainer, kernel)
            elif kind == "obs":
                obs.enable()
            try:
                elapsed, result = timed(lambda: epoch(trainer, graph, inputs))
            finally:
                recorder.restore()
                obs.disable()
            times[kind].append(elapsed)
            run.sample(
                "epoch", mode=kind, epoch=result.epoch, seconds=elapsed,
                loss=result.loss, val_accuracy=result.val_accuracy,
            )
    epochs = trainer.history.epochs
    run.count(len(epochs) - 1)

    infer: List[float] = []
    deadline = time.perf_counter() + seconds * (1.0 - share)
    while time.perf_counter() < deadline or not infer:
        elapsed, logits = timed(
            lambda: trainer.model.predict(graph, inputs.features, kernel=kernel)
        )
        infer.append(elapsed)
        run.sample("predict", seconds=elapsed)
    run.count(len(infer))

    check_outputs(run, inputs, trainer, logits)
    if run.trace:
        layer_metrics(run, recorder, trainer, times, infer)
        run.write_trace(recorder)
    else:
        m["setup_s"] = median(setups)
        m["latency_p50_s"] = median(times["plain"])
        m["peak_rss_mb"] = peak_rss_mb()


def check_outputs(run: Run, inputs: Inputs, trainer: Trainer, logits) -> None:
    epochs = trainer.history.epochs
    oracle_model = student(run.seed)
    oracle = Trainer(oracle_model, Adam(oracle_model, lr=LEARNING_RATE))
    expected = epoch(oracle, inputs.graph, inputs).loss
    run.check(
        "first-epoch loss equals the kernel-free Trainer's",
        abs(epochs[0].loss - expected) <= 1e-4,
        f"{epochs[0].loss:.6f} vs {expected:.6f}",
    )
    reference = trainer.model.predict(inputs.graph, inputs.features)
    worst = float(np.abs(logits - reference).max())
    run.check(
        "predict through the kernel equals kernel-free predict",
        worst <= 1e-3, f"max |diff| {worst:.2e}",
    )
    # The run is time-boxed, so the loss check that always applies is
    # the one a few epochs can meet; a run long enough for 31 epochs is
    # also held to the converged thresholds.
    run.check(
        "loss falls",
        len(epochs) >= 5 and epochs[4].loss < 0.85 * epochs[0].loss,
        f"epoch 0 {epochs[0].loss:.4f}, epoch 4 "
        f"{epochs[min(4, len(epochs) - 1)].loss:.4f}",
    )
    if len(epochs) >= 31:
        run.check(
            "converges in 31 epochs",
            epochs[30].loss < 0.35 * epochs[0].loss
            and epochs[30].val_accuracy >= 0.75,
            f"loss {epochs[30].loss:.4f} of {epochs[0].loss:.4f}, "
            f"val accuracy {epochs[30].val_accuracy:.3f}",
        )


def layer_metrics(run: Run, recorder: Recorder, trainer, times, infer) -> None:
    m = run.metrics
    per_epoch = recorder.by_op()
    for name in (
        "kernels.aggregate_fwd", "kernels.aggregate_bwd", "nn.update_fwd",
        "nn.update_bwd", "nn.loss", "nn.optimizer",
    ):
        m[name + "_s"] = median([spans[name].self_s for spans in per_epoch])
    m["nn.epoch_unaccounted_frac"] = median(
        [spans["nn.epoch"].self_s / spans["nn.epoch"].total_s for spans in per_epoch]
    )
    history = trainer.history
    done = len(history.epochs)
    stats = (history.aggregation_stats, history.backward_stats)
    m["kernels.gathers_per_epoch"] = sum(s.gathers for s in stats) / done
    # KernelStats.flops is 2 x gathers x F per call, so bytes gathered at
    # 4 B per element are 2 x flops.  Computed from counts, not measured.
    aggregate_s = m["kernels.aggregate_fwd_s"] + m["kernels.aggregate_bwd_s"]
    m["kernels.agg_gbps_computed"] = (
        2.0 * sum(s.flops for s in stats) / done / aggregate_s / 1e9
    )
    plain = times["plain"]
    q = tail_percentile(len(plain))
    m["nn.epoch_tail_s"] = percentile(plain, q)
    run.sample("tail", metric="nn.epoch_tail_s", percentile=q, count=len(plain))
    m["nn.infer_s"] = median(infer)
    m["obs.enabled_overhead_frac"] = median(times["obs"]) / median(plain) - 1.0
    m["trace.overhead_frac"] = median(times["traced"]) / median(plain) - 1.0
