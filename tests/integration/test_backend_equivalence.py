"""Differential test harness: every execution mode is provably equivalent.

The full matrix — kernel x aggregator x backend x worker count — must
produce the same answer.  Two levels of equivalence are enforced on
seeded random power-law graphs (the degree skew the paper's dynamic
scheduler exists for):

* **bitwise** across backends and worker counts: each vertex row is
  computed by the same specialized closure whichever worker runs its
  chunk, so ``serial``, ``thread``, and ``process`` outputs must be
  ``np.array_equal`` — not merely close;
* **numeric** against the dense SpMM reference oracle
  (:func:`repro.nn.aggregate`), up to fp32 reduction-order noise.

A determinism section additionally re-runs the concurrent backends and
requires bitwise-identical outputs and identical merged work counters.
"""

import numpy as np
import pytest

from repro.graphs import power_law_graph, synthetic_features
from repro.kernels import (
    BasicKernel,
    CompressedFusedKernel,
    CompressedKernel,
    FusedKernel,
    UpdateParams,
)
from repro.nn import aggregate
from repro.parallel import ChunkExecutor

AGGREGATORS = ("gcn", "sage-mean")

#: (backend, workers) cells of the execution matrix; serial is the baseline.
BACKEND_CELLS = [
    ("serial", 1),
    ("thread", 1),
    ("thread", 2),
    ("thread", 4),
    ("process", 1),
    ("process", 2),
    ("process", 4),
]

GRAPH_SEEDS = (3, 19)


def _graph(seed):
    return power_law_graph(150 + 31 * seed, avg_degree=7.0, seed=seed)


def _features(graph, seed):
    return synthetic_features(graph, 24, seed=seed, sparsity=0.4)


def _params(f_in, f_out, seed=0):
    rng = np.random.default_rng(seed)
    return UpdateParams(
        weight=(rng.standard_normal((f_in, f_out)) * 0.2).astype(np.float32),
        bias=(rng.standard_normal(f_out) * 0.1).astype(np.float32),
    )


def _run_kernel(name, executor, graph, h, aggregator, params):
    """Build a fresh kernel of one variant and run it once."""
    if name == "basic":
        kernel = BasicKernel(task_size=32, executor=executor)
        out, stats = kernel.aggregate(graph, h, aggregator)
    elif name == "compression":
        kernel = CompressedKernel(task_size=32, executor=executor)
        out, stats = kernel.aggregate(graph, h, aggregator)
    elif name == "fusion":
        kernel = FusedKernel(block_size=16, blocks_per_task=2, executor=executor)
        out, _, stats = kernel.run_layer(graph, h, params, aggregator)
    elif name == "combined":
        kernel = CompressedFusedKernel(
            block_size=16, blocks_per_task=2, executor=executor
        )
        out, _, stats = kernel.run_layer(graph, h, params, aggregator)
    else:  # pragma: no cover - defensive
        raise KeyError(name)
    return out, stats, kernel


def _comparable_counters(stats):
    """Every deterministic work counter (wall time is a measurement)."""
    counters = {
        "gathers": stats.gathers,
        "flops": stats.flops,
        "prefetches": stats.prefetches,
        "tasks": stats.tasks,
        "blocks": stats.blocks,
        "decompressed_rows": stats.decompressed_rows,
        "compressed_rows": stats.compressed_rows,
        "peak_buffer_bytes": stats.peak_buffer_bytes,
        "dram_bytes_saved": stats.dram_bytes_saved,
    }
    counters.update(
        {k: v for k, v in stats.extra.items() if k != "wall_time_s"}
    )
    return counters


@pytest.mark.parametrize("aggregator", AGGREGATORS)
@pytest.mark.parametrize("name", ["basic", "compression", "fusion", "combined"])
def test_differential_matrix(name, aggregator):
    """kernel x aggregator x backend x workers: bitwise-equal everywhere."""
    for seed in GRAPH_SEEDS:
        graph = _graph(seed)
        h = _features(graph, seed)
        params = _params(h.shape[1], 12, seed)
        reference = aggregate(graph, h, aggregator)  # dense SpMM oracle
        if name in ("fusion", "combined"):
            reference = params.apply(reference)

        baseline, baseline_stats, _ = _run_kernel(
            name, ChunkExecutor("serial", 1), graph, h, aggregator, params
        )
        np.testing.assert_allclose(baseline, reference, atol=2e-4)

        for backend, workers in BACKEND_CELLS[1:]:
            out, stats, _ = _run_kernel(
                name, ChunkExecutor(backend, workers), graph, h, aggregator, params
            )
            assert np.array_equal(out, baseline), (
                f"{name}/{aggregator}/{backend}x{workers} diverged bitwise"
            )
            # Schedule-invariant totals match the serial execution.
            assert stats.gathers == baseline_stats.gathers
            assert stats.tasks == baseline_stats.tasks
            assert stats.flops == baseline_stats.flops


@pytest.mark.parametrize("backend,workers", [("thread", 4), ("process", 4)])
@pytest.mark.parametrize("name", ["basic", "fusion"])
def test_concurrent_backends_are_deterministic(name, backend, workers):
    """Two runs with the same seed: bitwise outputs, identical counters."""
    graph = _graph(5)
    h = _features(graph, 5)
    params = _params(h.shape[1], 10, 5)

    runs = []
    for _ in range(2):
        out, stats, kernel = _run_kernel(
            name, ChunkExecutor(backend, workers), graph, h, "gcn", params
        )
        runs.append((out, stats, kernel.last_report))

    (out_a, stats_a, report_a), (out_b, stats_b, report_b) = runs
    assert np.array_equal(out_a, out_b)
    assert _comparable_counters(stats_a) == _comparable_counters(stats_b)
    # The deterministic dynamic schedule hands out identical chunk lists.
    assert report_a.chunks_per_worker == report_b.chunks_per_worker


def test_training_with_parallel_kernel_matches_serial():
    """A Trainer driving a multi-worker kernel reproduces the serial run."""
    from repro.nn import Adam, Trainer, build_model

    graph = _graph(2)
    h = _features(graph, 2)
    labels = np.random.default_rng(0).integers(0, 4, graph.num_vertices)

    losses = []
    for executor in (ChunkExecutor("serial", 1), ChunkExecutor("thread", 4)):
        model = build_model("gcn", h.shape[1], 16, 4, seed=0)
        trainer = Trainer(
            model,
            Adam(model, lr=0.01),
            aggregation_kernel=BasicKernel(executor=executor),
        )
        history = trainer.fit(graph, h, labels, epochs=3)
        losses.append(history.losses())
    assert losses[0] == losses[1]


@pytest.mark.parametrize("transposed", [False, True], ids=["forward", "transposed"])
@pytest.mark.parametrize("aggregator", ["gcn", "mean"])
def test_single_call_pass_matches_the_chunk_loop(aggregator, transposed):
    """One in-process worker runs a natural-order pass as ONE operator
    call and states its counters in closed form; two threads run the
    chunk loop and sum them.  Rows and counters must not differ."""
    graph = _graph(7)
    h = _features(graph, 7)
    runs = []
    for kernel in (
        BasicKernel(task_size=32),
        BasicKernel(task_size=32, executor=ChunkExecutor("thread", 2)),
    ):
        run = kernel.aggregate_backward if transposed else kernel.aggregate
        out, stats = run(graph, h, aggregator)
        report = kernel.last_report
        assert report is not None and report.workers == kernel.executor.workers
        assert sum(report.chunks_per_worker) == stats.tasks
        assert sum(w.stats.gathers for w in report.worker_reports) == stats.gathers
        runs.append((out, stats))
    (single, single_stats), (chunked, chunked_stats) = runs
    assert np.array_equal(single, chunked)
    assert single_stats.prefetches > 0
    for counter in ("gathers", "tasks", "prefetches", "flops"):
        assert getattr(single_stats, counter) == getattr(chunked_stats, counter)
