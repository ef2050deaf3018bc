"""What every workload shares: inputs, statistics, the result record.

Imported only after ``run.py`` has pinned the BLAS thread counts and put
``src/`` on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.graphs import CSRGraph, load_dataset, synthetic_features
from repro.nn import GNNModel, build_model

#: Shards, client threads and connections.  The sandbox has two cores;
#: more workers than cores would time the scheduler, not the program.
PARALLELISM = 2

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

IN_FEATURES, HIDDEN, CLASSES = 100, 256, 16
TEACHER_HIDDEN = 64
TRAIN_FRACTION = 0.6


@dataclass
class Inputs:
    """The generated arrays -- all the program under test ever sees."""

    graph: CSRGraph
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    generate_s: float


def make_inputs(seed: int, scale: float) -> Inputs:
    """Products twin + features + teacher labels, all from ``seed``.

    Labels are the argmax of a fixed random 2-layer teacher GCN, so the
    student has something learnable to fit and loss/accuracy checks mean
    something.
    """
    start = time.perf_counter()
    graph = load_dataset("products", scale=scale, seed=seed)
    generate_s = time.perf_counter() - start
    features = synthetic_features(graph, IN_FEATURES, seed=seed)
    teacher = build_model("gcn", IN_FEATURES, TEACHER_HIDDEN, CLASSES, seed=seed + 1)
    labels = teacher.predict(graph, features).argmax(axis=1)
    train_mask = np.random.default_rng(seed).random(graph.num_vertices) < TRAIN_FRACTION
    return Inputs(graph, features, labels, train_mask, ~train_mask, generate_s)


def fresh_graph(graph: CSRGraph) -> CSRGraph:
    """The same arrays in a new graph object, so nothing derived (CSC
    view, transpose, JIT specialisations keyed on the graph) is warm."""
    return CSRGraph(graph.indptr, graph.indices, name=graph.name)


def student(seed: int) -> GNNModel:
    return build_model("gcn", IN_FEATURES, HIDDEN, CLASSES, seed=seed)


# ----------------------------------------------------------------------
def timed(fn: Callable[[], Any]) -> "tuple[float, Any]":
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples)) if len(samples) else 0.0


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(samples, q)) if len(samples) else 0.0


def tail_percentile(count: int) -> float:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond
    it; the median when the sample supports none of them."""
    for q in (99.0, 95.0, 90.0, 75.0):
        if count * (100.0 - q) / 100.0 >= 10.0:
            return q
    return 50.0


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest reaped child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


# ----------------------------------------------------------------------
@dataclass
class Run:
    """One workload run: named metrics, operation counts, output checks,
    and every raw sample (written to ``metrics.jsonl`` under ``--out``)."""

    workload: str
    seed: int
    trace: int
    out_dir: Optional[str] = None
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[Dict[str, Any]] = field(default_factory=list)
    samples: List[Dict[str, Any]] = field(default_factory=list)

    def sample(self, kind: str, **fields: Any) -> None:
        if self.out_dir is not None:
            self.samples.append({"kind": kind, **fields})

    def timed_setups(
        self, build: Callable[[], Any], close: Callable[[Any], None] = lambda made: None
    ) -> "tuple[List[float], Any]":
        """``build()`` ``SETUP_REPEATS`` times (once in a traced run),
        closing what each but the last one made.  Returns the times and
        what the last one made."""
        times: List[float] = []
        made = None
        for repeat in range(1 if self.trace else SETUP_REPEATS):
            if repeat:
                close(made)
            elapsed, made = timed(build)
            times.append(elapsed)
            self.sample("setup", seconds=elapsed)
        self.count(len(times))
        return times, made

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str) -> None:
        """An output check: a failed one is a failed operation and makes
        the run incorrect."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        self.count(1, 0 if ok else 1)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def write_trace(self, recorder, **extra: Any) -> None:
        if self.out_dir is not None:
            recorder.dump(
                os.path.join(self.out_dir, "trace.jsonl"),
                workload=self.workload, seed=self.seed, **extra,
            )

    def write_samples(self) -> None:
        if self.out_dir is None:
            return
        head = {"workload": self.workload, "seed": self.seed, "trace": self.trace}
        with open(os.path.join(self.out_dir, "metrics.jsonl"), "a") as handle:
            for row in self.samples:
                handle.write(json.dumps({**head, **row}) + "\n")
            for row in self.checks:
                handle.write(json.dumps({**head, "kind": "check", **row}) + "\n")
