"""What the sharded trainer must keep true under the hood: shard
aggregation allocates nothing edge-sized, a ``/dev/shm`` too small for
the bundle fails set-up before any worker forks, and a shard worker that
dies mid-epoch, or while its peer waits in a barrier, fails the epoch
promptly; the autouse leak check of ``conftest.py`` holds each test to
leaving no child process, ``/dev/shm`` entry or thread behind."""

import logging
import multiprocessing
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

from repro import lanes, obs
from repro.graphs import load_dataset, synthetic_features
from repro.nn import Adam, build_model
from repro.parallel import ShardedTrainer, ShardWorkerDied
from repro.parallel import sharded as sharded_module
from repro.parallel import shm

FEATURES = 12
HIDDEN = 64
CLASSES = 5


@pytest.fixture(scope="module")
def graph():
    return load_dataset("products", scale=0.25, seed=3)


@pytest.fixture(scope="module")
def inputs(graph):
    features = synthetic_features(graph, FEATURES, seed=4)
    labels = np.random.default_rng(8).integers(
        0, CLASSES, graph.num_vertices
    ).astype(np.int64)
    return features, labels


def _trainer(graph, backend):
    model = build_model("gcn", FEATURES, HIDDEN, CLASSES, seed=0)
    return ShardedTrainer(
        graph, model, Adam(model, lr=0.01), num_shards=2, backend=backend
    )


def test_shard_aggregation_allocates_no_edge_sized_temporary(graph, inputs):
    """One forward + one transposed aggregation of the hidden layer must
    peak far below ``E_shard × F × 4`` bytes — the gathered-rows matrix
    the fused core exists to never build."""
    with _trainer(graph, "serial") as trainer:
        trainer.fit(*inputs, epochs=1)
        runtime = trainer._runtimes[0]
        forward, transposed = runtime.ops["gcn"]
        edges = min(forward.nnz, transposed.nnz)
        assert edges > 20 * runtime.n_local  # dense enough to tell apart
        tracemalloc.start()
        try:
            runtime.forward_layer(1)
            runtime.backward_aggregate(1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 0.5 * edges * HIDDEN * 4


def test_full_dev_shm_fails_setup_before_any_fork(graph, inputs, monkeypatch):
    class OnePage:
        f_bavail = 1
        f_frsize = 4096

    monkeypatch.setattr(shm.os, "statvfs", lambda path: OnePage())
    trainer = _trainer(graph, "process")
    try:
        with pytest.raises(OSError, match="4096 bytes free"):
            trainer.fit(*inputs, epochs=1)
        assert not trainer.worker_pids()
    finally:
        trainer.close()


def test_sigkilled_worker_fails_the_epoch_without_leaks(
    graph, inputs, monkeypatch, caplog
):
    real_reduce = sharded_module.shard_segment_reduce
    calls = {"n": 0}

    def reduce_then_die(op, x):
        # Three aggregations per epoch (two forward, one transposed):
        # worker 1 kills itself inside its second epoch, after the
        # epoch's first barrier, while worker 0 heads for the next one.
        calls["n"] += 1
        if (
            calls["n"] == 5
            and multiprocessing.current_process().name == "shard-worker-1"
        ):
            os.kill(os.getpid(), signal.SIGKILL)
        return real_reduce(op, x)

    monkeypatch.setattr(sharded_module, "shard_segment_reduce", reduce_then_die)
    _, metrics = obs.enable()
    trainer = _trainer(graph, "process")
    try:
        trainer.fit(*inputs, epochs=1)  # workers fork here, patched
        start = time.monotonic()
        with caplog.at_level(logging.ERROR, logger=sharded_module.__name__):
            with pytest.raises(ShardWorkerDied) as died:
                trainer.train_epoch()
        elapsed = time.monotonic() - start
        deaths = metrics.snapshot()["shard.worker_deaths"]["value"]
    finally:
        trainer.close()
        obs.disable()
    # The parent waits on each worker's pipe and process sentinel, so a
    # death wakes it at once; no polling interval sits in between.
    assert elapsed < 3.0
    assert died.value.part == 1
    assert died.value.exitcode == -signal.SIGKILL
    assert deaths == 1
    assert any("shard worker 1" in r.getMessage() for r in caplog.records)


def test_worker_exception_fails_the_epoch_with_its_traceback(
    graph, inputs, monkeypatch
):
    real_reduce = sharded_module.shard_segment_reduce

    def reduce_or_raise(op, x):
        if multiprocessing.current_process().name == "shard-worker-1":
            raise ArithmeticError("shard 1 cannot reduce")
        return real_reduce(op, x)

    monkeypatch.setattr(sharded_module, "shard_segment_reduce", reduce_or_raise)
    trainer = _trainer(graph, "process")
    try:
        with pytest.raises(RuntimeError, match="shard worker") as failed:
            trainer.fit(*inputs, epochs=1)
    finally:
        trainer.close()
    assert "ArithmeticError: shard 1 cannot reduce" in str(failed.value)


def test_sigkill_mid_barrier_fails_the_epoch_promptly(graph, inputs, monkeypatch):
    """Worker 1 dies while worker 0 is blocked in ``barrier.wait``: the
    parent aborts the barrier, which frees worker 0, and names worker 1."""
    real_reduce = sharded_module.shard_segment_reduce
    calls = {"n": 0}
    trainer = _trainer(graph, "process")

    def die_once_peer_waits(op, x):
        # Epoch 0 aggregates three times (layer 0 once for the run, then
        # layer 1 each way); call 4 is epoch 1's layer-1 forward.  Worker
        # 0 runs on from there to the barrier before the backward
        # exchange and blocks in it, since worker 1 never arrives.
        calls["n"] += 1
        if (
            calls["n"] == 4
            and multiprocessing.current_process().name == "shard-worker-1"
        ):
            deadline = time.monotonic() + 5.0
            while trainer._barrier.n_waiting < 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            # Anything but a SIGKILL fails the ShardWorkerDied check.
            assert trainer._barrier.n_waiting == 1, "worker 0 never blocked"
            os.kill(os.getpid(), signal.SIGKILL)
        return real_reduce(op, x)

    monkeypatch.setattr(sharded_module, "shard_segment_reduce", die_once_peer_waits)
    try:
        trainer.fit(*inputs, epochs=1)  # workers fork here, patched
        start = time.monotonic()
        with pytest.raises(ShardWorkerDied) as died:
            trainer.train_epoch()
    finally:
        trainer.close()
    # close() included: it joins worker 0, which only the aborted barrier
    # released.
    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    assert (died.value.part, died.value.exitcode) == (1, -signal.SIGKILL)


@pytest.mark.parametrize("backend", ["process", "serial"])
def test_process_workers_run_one_lane(graph, inputs, monkeypatch, tmp_path, backend):
    """A process-backend worker's phases run on one lane (the shards are
    the run's parallelism); the serial backend's run in the parent, at
    the parent's lane count.  Patched before the workers fork, so they
    record every split they make into a file."""
    log = tmp_path / "splits.txt"
    real_split = lanes.split

    def recording_split(n, nbytes, fn):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {lanes.lane_count()}\n")
        real_split(n, nbytes, fn)

    monkeypatch.setattr(lanes, "split", recording_split)
    previous = lanes.set_lane_count(2)
    try:
        with _trainer(graph, backend) as trainer:
            trainer.fit(*inputs, epochs=2)
        assert lanes.lane_count() == 2  # the parent's is its own
    finally:
        lanes.set_lane_count(previous)
    seen = {tuple(map(int, line.split())) for line in log.read_text().splitlines()}
    pids = {pid for pid, _ in seen}
    if backend == "process":
        assert len(pids) == 2 and os.getpid() not in pids
        assert {count for _, count in seen} == {1}
    else:
        assert seen == {(os.getpid(), 2)}
