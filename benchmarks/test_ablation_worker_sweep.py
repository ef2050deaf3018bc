"""Ablation: worker-count sweep of the real chunk executor (Section 4.1).

The scheduling ablation (``test_ablation_load_balance``) models thread
assignment analytically; this one actually executes the ``basic`` kernel
on the one in-process executor, sweeping the worker count (one worker is
a single operator call, more run the chunk loop on threads), and reports
wall-clock plus the per-worker chunk counts recorded in ``KernelStats``
— the executed counterpart of the load-balance model.
"""

import numpy as np
import pytest
from conftest import run_experiment

from repro.bench.harness import Experiment
from repro.graphs import load_dataset, synthetic_features
from repro.kernels import BasicKernel
from repro.parallel import ChunkExecutor

pytestmark = pytest.mark.slow

WORKER_COUNTS = (1, 2, 4)


def _sweep():
    graph = load_dataset("products", scale=0.1, seed=3)
    h = synthetic_features(graph, 32, seed=1, sparsity=0.5)
    exp = Experiment(
        "ablation-workers", "Executed worker sweep, basic kernel (products twin)"
    )
    baseline, _ = BasicKernel(task_size=16).aggregate(graph, h)
    for workers in WORKER_COUNTS:
        kernel = BasicKernel(task_size=16, executor=ChunkExecutor(workers))
        out, stats = kernel.aggregate(graph, h)
        assert np.array_equal(out, baseline)
        report = kernel.last_report
        assert sum(report.chunks_per_worker) == stats.tasks
        exp.add(f"x{workers} wall time", report.wall_time_s, unit="s")
        exp.add(f"x{workers} imbalance", report.imbalance)
        exp.note(f"x{workers}: chunks/worker {report.chunks_per_worker}")
    return exp


def test_worker_sweep_ablation(benchmark):
    exp = run_experiment(benchmark, _sweep)
    values = {row.label: row.measured for row in exp.rows}
    for workers in WORKER_COUNTS:
        assert values[f"x{workers} wall time"] > 0.0
        # Dynamic chunk assignment keeps executed gather work balanced
        # despite the twin's power-law degree skew.
        assert values[f"x{workers} imbalance"] < 1.7
