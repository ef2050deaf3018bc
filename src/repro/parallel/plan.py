"""Chunk planning for Algorithm 1's output-parallel loop.

The paper's ``basic`` kernel output-parallelizes over chunks of ``T``
vertices: each task owns a disjoint slice of the output matrix, so the
workers need no synchronization (Section 4.1).  This module turns a
graph (plus an optional Section 4.4 processing order) into that chunk
plan, weighs each chunk by its gather work, and assigns chunks to
workers with the same deterministic list scheduler that
:func:`repro.graphs.partition.dynamic_schedule` uses to model OpenMP's
dynamic scheduler: the next chunk always goes to the least-loaded
worker.  Because the assignment is computed up front from the chunk
costs, two runs with the same inputs produce the same per-worker chunk
lists — parallel execution stays reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph


@dataclass(frozen=True)
class Chunk:
    """One T-vertex task: a half-open position range over the order."""

    index: int
    start: int
    stop: int
    cost: float  # gather work: sum of (degree + 1) over the chunk
    #: The chunk's vertex ids ascend by one (every chunk of a natural-order
    #: plan): the kernel may take a CSR row slice and the executor a slice
    #: write.  Decided once per plan, not once per chunk per pass.
    contiguous: bool = False

    @property
    def num_vertices(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ChunkPlan:
    """The full task decomposition of one kernel invocation."""

    chunks: Tuple[Chunk, ...]
    task_size: int
    num_vertices: int

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def total_cost(self) -> float:
        return sum(chunk.cost for chunk in self.chunks)


def build_chunk_plan(
    graph: CSRGraph,
    task_size: int,
    order: Optional[np.ndarray] = None,
) -> ChunkPlan:
    """Split ``[0, num_vertices)`` into T-vertex chunks with gather costs.

    ``order`` is the processing order the kernel walks; costs follow the
    *ordered* degrees so the plan prices exactly the vertices each chunk
    will touch.
    """
    if task_size <= 0:
        raise ValueError(f"task_size must be positive, got {task_size}")
    n = graph.num_vertices
    degs = graph.degrees()
    breaks = None
    if order is not None:
        if len(order) != n:
            raise ValueError("order must cover every vertex exactly once")
        degs = degs[order]
        # breaks[i] = non-unit steps of the order before position i, so a
        # chunk is contiguous iff the count does not move across it.
        breaks = np.concatenate(([0], np.cumsum(np.diff(order) != 1)))
    work = (degs + 1).astype(np.float64)
    chunks = []
    for index, start in enumerate(range(0, n, task_size)):
        stop = min(start + task_size, n)
        chunks.append(
            Chunk(
                index=index,
                start=start,
                stop=stop,
                cost=float(work[start:stop].sum()),
                contiguous=breaks is None or bool(breaks[stop - 1] == breaks[start]),
            )
        )
    return ChunkPlan(chunks=tuple(chunks), task_size=task_size, num_vertices=n)


def assign_chunks(plan: ChunkPlan, workers: int) -> List[List[Chunk]]:
    """Deterministic dynamic assignment of chunks to ``workers`` workers.

    Models OpenMP's dynamic scheduler as a list scheduler (the same model
    as :func:`repro.graphs.partition.dynamic_schedule`): chunks are
    handed out in index order, each to the worker with the least
    accumulated cost, ties broken by the lowest worker id.  The result is
    a load-balanced partition that is identical run-to-run.
    """
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    load = np.zeros(workers, dtype=np.float64)
    assignment: List[List[Chunk]] = [[] for _ in range(workers)]
    for chunk in plan.chunks:
        worker = int(np.argmin(load))  # argmin takes the first (lowest id) tie
        assignment[worker].append(chunk)
        load[worker] += chunk.cost
    return assignment


def assignment_imbalance(assignment: List[List[Chunk]]) -> float:
    """makespan / mean cost of an assignment — 1.0 is perfect balance."""
    costs = np.array(
        [sum(chunk.cost for chunk in chunks) for chunks in assignment], dtype=np.float64
    )
    if len(costs) == 0 or costs.mean() == 0:
        return 1.0
    return float(costs.max() / costs.mean())
