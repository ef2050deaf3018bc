"""``train-sharded``: the same model trained by two shard workers.

``ShardedTrainer(num_shards=2, partition_method="greedy",
backend="process")`` on the products twin at scale 1 (4,096 vertices,
~0.18 M edges).  The partitioner, the shared-memory bundle, halo
exchange, barriers and the shard-local segment-reduce do the work;
``BasicKernel`` does none, so a win in ``kernels/jit.py`` alone must not
move it.  A plain ``Trainer`` on the same graph is the single-worker
baseline and the oracle for the loss.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Dict, List

from repro.graphs import build_shards, edge_cut_partition
from repro.kernels import BasicKernel
from repro.nn import Adam, Trainer
from repro.parallel import ShardedTrainer, ShardRuntime
from repro.parallel import sharded as sharded_module

from .common import (
    PARALLELISM, Inputs, Run, fresh_graph, make_inputs, median,
    peak_rss_mb, student, timed,
)
from .trace import Recorder
from .train_full import LEARNING_RATE, epoch as trainer_epoch

SCALE = 1.0
PARTITION_METHOD = "greedy"
#: Traced run: share of ``--seconds`` spent on sharded epochs, half of
#: it per backend; the rest times the ``Trainer`` baseline.  The untraced
#: run spends all of it on process-backend epochs.
TRACED_EPOCH_SHARE = 0.8
#: Epochs whose loss must equal the ``Trainer``'s.
CHECKED_EPOCHS = 3
PHASES = (
    "parallel.forward_layer", "parallel.loss_grad",
    "parallel.backward_update", "parallel.backward_aggregate",
)
SHM_DIR = "/dev/shm"


def set_up(inputs: Inputs, seed: int, backend: str) -> ShardedTrainer:
    """Inputs ready -> partition, shards, bundle, workers, first epoch."""
    model = student(seed)
    trainer = ShardedTrainer(
        fresh_graph(inputs.graph), model, Adam(model, lr=LEARNING_RATE),
        num_shards=PARALLELISM, partition_method=PARTITION_METHOD,
        backend=backend,
    )
    trainer.fit(
        inputs.features, inputs.labels, epochs=1,
        train_mask=inputs.train_mask, val_mask=inputs.val_mask,
    )
    return trainer


def timed_epochs(run: Run, trainer: ShardedTrainer, seconds: float, mode: str):
    """``train_epoch()`` until ``seconds`` are up, at least two."""
    times: List[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < 2:
        elapsed, result = timed(trainer.train_epoch)
        times.append(elapsed)
        run.sample(
            "epoch", mode=mode, epoch=result.epoch, seconds=elapsed,
            loss=result.loss, halo_bytes=trainer.last_halo_bytes,
        )
    run.count(len(times))
    return times


def baseline(run: Run, inputs: Inputs, seconds: float):
    """Single-worker ``Trainer`` epochs on the same graph and model."""
    model = student(run.seed)
    trainer = Trainer(
        model, Adam(model, lr=LEARNING_RATE), aggregation_kernel=BasicKernel()
    )
    graph = fresh_graph(inputs.graph)
    trainer_epoch(trainer, graph, inputs)
    times: List[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < CHECKED_EPOCHS - 1:
        elapsed, result = timed(lambda: trainer_epoch(trainer, graph, inputs))
        times.append(elapsed)
        run.sample("epoch", mode="trainer", epoch=result.epoch, seconds=elapsed,
                   loss=result.loss)
    run.count(len(times) + 1)
    return times, trainer.history.losses()


def measure(run: Run, seconds: float, scale: float = SCALE) -> None:
    inputs = make_inputs(run.seed, scale)
    m = run.metrics
    m["graphs.generate_s"] = inputs.generate_s
    segments_before = set(os.listdir(SHM_DIR))

    setups, trainer = run.timed_setups(
        lambda: set_up(inputs, run.seed, "process"), ShardedTrainer.close
    )
    share = TRACED_EPOCH_SHARE / 2 if run.trace else 1.0
    try:
        process_times = timed_epochs(run, trainer, seconds * share, "process")
        losses = trainer.history.losses()
        if run.trace:
            m["parallel.halo_mb_per_epoch"] = trainer.last_halo_bytes / 2**20
            m["parallel.exchanges_per_epoch"] = trainer.last_exchanges
            m["parallel.worker_setup_bytes_max"] = max(trainer.setup_bytes)
    finally:
        trainer.close()

    trainer_times, trainer_losses = baseline(
        run, inputs, seconds * (1.0 - TRACED_EPOCH_SHARE) if run.trace else 0.0
    )
    worst = max(
        abs(a - b)
        for a, b in zip(losses[:CHECKED_EPOCHS], trainer_losses[:CHECKED_EPOCHS])
    )
    run.check(
        f"loss of the first {CHECKED_EPOCHS} epochs equals the Trainer's",
        worst <= 1e-4, f"max |diff| {worst:.2e}",
    )
    children = multiprocessing.active_children()
    run.check("no live child after close()", not children, f"{children}")
    leaked = set(os.listdir(SHM_DIR)) - segments_before
    run.check(f"no segment left in {SHM_DIR}", not leaked, f"{sorted(leaked)}")

    if run.trace:
        layer_metrics(run, inputs, seconds * share, setups[0],
                      median(process_times), median(trainer_times))
    else:
        m["setup_s"] = median(setups)
        m["latency_p50_s"] = median(process_times)
        m["peak_rss_mb"] = peak_rss_mb()


def install(recorder: Recorder, trainer: ShardedTrainer) -> None:
    def part(runtime, *args):
        return runtime.part

    recorder.wrap(trainer, "train_epoch", "parallel.epoch")
    for name in PHASES:
        recorder.wrap(ShardRuntime, name.split(".")[1], name, tag=part)
    recorder.wrap(sharded_module, "shard_segment_reduce", "kernels.shard_reduce")
    recorder.wrap(trainer.optimizer, "step", "nn.optimizer")


def layer_metrics(
    run: Run, inputs: Inputs, seconds: float, setup_s: float,
    process_epoch_s: float, trainer_epoch_s: float,
) -> None:
    m = run.metrics
    graph = fresh_graph(inputs.graph)
    m["graphs.csc_build_s"] = timed(graph.csc_arrays)[0]
    m["graphs.partition_s"], partition = timed(
        lambda: edge_cut_partition(graph, PARALLELISM, method=PARTITION_METHOD)
    )
    # The trainer builds the shards of the graph and of its transpose.
    m["graphs.build_shards_s"] = timed(lambda: (
        build_shards(graph, partition.assignment),
        build_shards(graph.transpose(), partition.assignment),
    ))[0]
    m["graphs.partition_cut_frac"] = partition.cut_fraction(graph)
    m["graphs.partition_balance"] = partition.balance
    m["parallel.setup_other_s"] = (
        setup_s - m["graphs.partition_s"] - m["graphs.build_shards_s"]
        - process_epoch_s
    )
    m["parallel.speedup_vs_trainer_x"] = trainer_epoch_s / process_epoch_s

    # The same epochs on the serial backend, where each shard's phases
    # can be timed from this process; plain and traced epochs take turns.
    recorder = Recorder()
    times: Dict[str, List[float]] = {"plain": [], "traced": []}
    with set_up(inputs, run.seed, "serial") as trainer:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(times["traced"]) < 2:
            # Which kind goes first changes every round: there are few.
            for kind in sorted(times, reverse=bool(len(times["plain"]) % 2)):
                if kind == "traced":
                    install(recorder, trainer)
                try:
                    elapsed, result = timed(trainer.train_epoch)
                finally:
                    recorder.restore()
                times[kind].append(elapsed)
                run.sample("epoch", mode="serial-" + kind, epoch=result.epoch,
                           seconds=elapsed, loss=result.loss)
        run.count(1 + sum(map(len, times.values())))
    m["trace.overhead_frac"] = median(times["traced"]) / median(times["plain"]) - 1.0

    epochs = recorder.by_op(key=lambda span: (span.name, span.tag))
    parts = range(PARALLELISM)

    def slowest_shard(name: str) -> float:
        return median([max(e[name, p].self_s for p in parts) for e in epochs])

    for name in PHASES:
        m[name + "_s"] = slowest_shard(name)
    m["kernels.shard_reduce_s"] = slowest_shard("kernels.shard_reduce")
    m["nn.optimizer_s"] = median([e["nn.optimizer", None].self_s for e in epochs])
    busy = [
        [sum(e[name, p].total_s for name in PHASES) for p in parts] for e in epochs
    ]
    m["parallel.shard_busy_max_s"] = median([max(b) for b in busy])
    m["parallel.shard_busy_imbalance"] = median(
        [max(b) * len(b) / sum(b) for b in busy]
    )
    m["parallel.sync_overhead_s"] = process_epoch_s - m["parallel.shard_busy_max_s"]
    m["parallel.epoch_unaccounted_frac"] = median([
        e["parallel.epoch", None].self_s / e["parallel.epoch", None].total_s
        for e in epochs
    ])
    run.write_trace(recorder)
