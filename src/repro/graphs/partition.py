"""Task partitioning, load-balance analysis, and graph sharding.

Two planes live here:

1. **Thread scheduling analysis** — Section 4.1's motivation.  "The
   processing time of a chunk correlates with the degrees of the
   vertices in it.  The degrees can vary significantly and sometimes
   follow a power law distribution.  To balance the load among threads,
   we schedule the parallel tasks with OpenMP's dynamic scheduler."
   This plane splits a vertex set into tasks of ``T`` vertices, weighs
   each task by its gather work (sum of degrees + 1), and compares
   static thread assignment against a dynamic (list-scheduler) one.

2. **Graph partitioning for sharded training** — an edge-cut
   partitioner (contiguous / BFS-grow / LDG greedy, plus an optional
   boundary-refinement pass) and a shard builder that rewrites each
   partition's rows into a self-contained local CSR with halo (ghost)
   vertex maps.  The sharded trainer in ``repro.parallel.sharded``
   consumes these shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .csr import CSRGraph, GraphError, _csr_arrays


@dataclass(frozen=True)
class ScheduleReport:
    """Per-thread work under one scheduling policy."""

    policy: str
    thread_work: np.ndarray

    @property
    def makespan(self) -> float:
        return float(self.thread_work.max()) if len(self.thread_work) else 0.0

    @property
    def mean_work(self) -> float:
        return float(self.thread_work.mean()) if len(self.thread_work) else 0.0

    @property
    def imbalance(self) -> float:
        """makespan / mean — 1.0 is a perfectly balanced schedule."""
        if self.mean_work == 0:
            return 1.0
        return self.makespan / self.mean_work


def task_weights(graph: CSRGraph, task_size: int) -> np.ndarray:
    """Gather work (degree + 1 summed) of each T-vertex task, in vertex
    order (Section 4.4's order is a relabel of the graph first)."""
    if task_size <= 0:
        raise ValueError("task_size must be positive")
    work = (graph.degrees() + 1).astype(np.float64)
    n = graph.num_vertices
    num_tasks = (n + task_size - 1) // task_size
    if num_tasks == 0:
        return np.zeros(0, dtype=np.float64)
    starts = np.arange(num_tasks, dtype=np.int64) * task_size
    return np.add.reduceat(work, starts)


def static_schedule(weights: np.ndarray, threads: int) -> ScheduleReport:
    """Contiguous-block task assignment (OpenMP ``schedule(static)``).

    Without a chunk size, OpenMP's static schedule divides the iteration
    space into one contiguous block per thread (block ``ceil(n/threads)``
    except possibly the last).  Cyclic round-robin — ``schedule(static,1)``
    — is modelled separately by :func:`static_cyclic_schedule`.
    """
    if threads <= 0:
        raise ValueError("threads must be positive")
    thread_work = np.zeros(threads)
    num_tasks = len(weights)
    block = (num_tasks + threads - 1) // threads if num_tasks else 0
    for thread in range(threads):
        chunk = weights[thread * block : (thread + 1) * block]
        if len(chunk):
            thread_work[thread] = chunk.sum()
    return ScheduleReport(policy="static", thread_work=thread_work)


def static_cyclic_schedule(weights: np.ndarray, threads: int) -> ScheduleReport:
    """Cyclic task assignment (OpenMP ``schedule(static,1)``).

    Task ``i`` goes to thread ``i % threads`` — the round-robin model
    this module previously (incorrectly) used for plain ``static``.
    """
    if threads <= 0:
        raise ValueError("threads must be positive")
    thread_work = np.zeros(threads)
    for task, weight in enumerate(weights):
        thread_work[task % threads] += weight
    return ScheduleReport(policy="static_cyclic", thread_work=thread_work)


def dynamic_schedule(weights: np.ndarray, threads: int) -> ScheduleReport:
    """Work-stealing-style dynamic assignment.

    Models OpenMP's dynamic scheduler as a list scheduler: each thread
    grabs the next task when it goes idle, which is equivalent to always
    assigning the next task to the least-loaded thread.
    """
    if threads <= 0:
        raise ValueError("threads must be positive")
    thread_work = np.zeros(threads)
    for weight in weights:
        thread_work[int(np.argmin(thread_work))] += weight
    return ScheduleReport(policy="dynamic", thread_work=thread_work)


def balance_comparison(
    graph: CSRGraph,
    task_size: int = 64,
    threads: int = 28,
) -> "tuple[ScheduleReport, ScheduleReport]":
    """(static, dynamic) schedules of a graph's aggregation tasks."""
    weights = task_weights(graph, task_size)
    return static_schedule(weights, threads), dynamic_schedule(weights, threads)


# ----------------------------------------------------------------------
# Edge-cut partitioning for sharded training
# ----------------------------------------------------------------------

PARTITION_METHODS = ("contiguous", "bfs", "greedy")


def _flat_positions(indptr: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Flat ``indices`` positions of all rows in ``vertices`` (in order)."""
    counts = indptr[vertices + 1] - indptr[vertices]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(indptr[vertices], counts) + offsets


def _undirected_csr(graph: CSRGraph) -> Tuple[np.ndarray, np.ndarray]:
    """CSR arrays of the symmetrized adjacency A ∪ Aᵀ (no self loops)."""
    n = graph.num_vertices
    dst = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    src = graph.indices
    rows = np.concatenate([dst, src])
    cols = np.concatenate([src, dst])
    keep = rows != cols
    return _csr_arrays(n, rows[keep], cols[keep], deduplicate=True)


@dataclass(frozen=True)
class PartitionResult:
    """A vertex → part assignment plus its quality statistics."""

    assignment: np.ndarray
    num_parts: int
    method: str

    def part_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.num_parts)

    @property
    def balance(self) -> float:
        """max part size / mean part size — 1.0 is perfect."""
        sizes = self.part_sizes()
        mean = sizes.mean()
        return float(sizes.max() / mean) if mean else 1.0

    def edge_cut(self, graph: CSRGraph) -> int:
        """Number of directed edges whose endpoints land in different parts."""
        n = graph.num_vertices
        dst = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
        return int((self.assignment[dst] != self.assignment[graph.indices]).sum())

    def cut_fraction(self, graph: CSRGraph) -> float:
        if graph.num_edges == 0:
            return 0.0
        return self.edge_cut(graph) / graph.num_edges


def _bfs_assignment(
    undirected: Tuple[np.ndarray, np.ndarray],
    num_parts: int,
    capacities: np.ndarray,
) -> np.ndarray:
    """Grow each part as a BFS ball over the undirected adjacency."""
    u_indptr, u_indices = undirected
    n = len(u_indptr) - 1
    u_degs = np.diff(u_indptr)
    # Seed from high-degree vertices: hubs anchor parts so their large
    # neighborhoods become local rather than halo traffic.
    order = np.argsort(-u_degs, kind="stable")
    assignment = np.full(n, -1, dtype=np.int64)
    seed_ptr = 0
    for part in range(num_parts):
        capacity = int(capacities[part])
        filled = 0
        frontier = np.empty(0, dtype=np.int64)
        while filled < capacity:
            if len(frontier) == 0:
                while seed_ptr < n and assignment[order[seed_ptr]] != -1:
                    seed_ptr += 1
                if seed_ptr >= n:
                    return assignment
                seed = order[seed_ptr]
                assignment[seed] = part
                filled += 1
                frontier = np.array([seed], dtype=np.int64)
                continue
            flat = _flat_positions(u_indptr, frontier)
            nbrs = u_indices[flat]
            nbrs = np.unique(nbrs[assignment[nbrs] == -1])
            if len(nbrs) == 0:
                frontier = np.empty(0, dtype=np.int64)
                continue
            chosen = nbrs[: capacity - filled]
            assignment[chosen] = part
            filled += len(chosen)
            frontier = chosen
    return assignment


def _greedy_assignment(
    undirected: Tuple[np.ndarray, np.ndarray],
    num_parts: int,
    capacities: np.ndarray,
) -> np.ndarray:
    """Linear deterministic greedy (LDG) streaming assignment.

    Vertices stream in degree-descending order; each goes to the part
    maximizing ``|N(v) ∩ part| * (1 - load/capacity)`` — neighbors pull,
    fullness pushes back (Stanton & Kliot's LDG heuristic).

    One ``bincount`` per vertex; the parts are scored on Python floats,
    which round exactly as the float64 array expressions did: full parts
    are skipped and ties go to the first maximum, as ``np.argmax``.
    """
    u_indptr, u_indices = undirected
    n = len(u_indptr) - 1
    order = np.argsort(-np.diff(u_indptr), kind="stable")
    # Part + 1 per vertex, 0 while unplaced: bincount slot 0 counts the
    # unplaced neighbours.
    placed = np.zeros(n, dtype=np.int64)
    ptr = u_indptr.tolist()
    caps = [float(cap) for cap in capacities]
    loads = [0] * num_parts
    for v in order.tolist():
        lo, hi = ptr[v], ptr[v + 1]
        counts = np.bincount(
            placed[u_indices[lo:hi]], minlength=num_parts + 1
        ).tolist()
        any_placed = counts[0] < hi - lo
        best, choice = -np.inf, 0
        for part in range(num_parts):
            load, cap = loads[part], caps[part]
            if load >= cap:
                continue
            score = 1.0 - load / cap
            if any_placed:
                score = counts[part + 1] * score
            if score > best:
                best, choice = score, part
        placed[v] = choice + 1
        loads[choice] += 1
    return placed - 1


def _refine_assignment(
    undirected: Tuple[np.ndarray, np.ndarray],
    assignment: np.ndarray,
    num_parts: int,
    capacities: np.ndarray,
) -> np.ndarray:
    """METIS-flavoured boundary refinement, one pass: greedily move
    boundary vertices to the neighboring part with the highest edge-cut
    gain, respecting part capacities.  Deterministic (gain-descending,
    vertex id as tiebreak)."""
    u_indptr, u_indices = undirected
    n = len(u_indptr) - 1
    if n == 0:
        return assignment
    dst = np.repeat(np.arange(n, dtype=np.int64), np.diff(u_indptr))
    assignment = assignment.copy()
    loads = np.bincount(assignment, minlength=num_parts)
    nbr_part_counts = np.bincount(
        dst * num_parts + assignment[u_indices], minlength=n * num_parts
    ).reshape(n, num_parts)
    current = nbr_part_counts[np.arange(n), assignment]
    best_part = np.argmax(nbr_part_counts, axis=1)
    gain = nbr_part_counts[np.arange(n), best_part] - current
    movers = np.flatnonzero((gain > 0) & (best_part != assignment))
    for v in movers[np.lexsort((movers, -gain[movers]))]:
        target = int(best_part[v])
        source = int(assignment[v])
        if loads[target] >= capacities[target] or loads[source] <= 1:
            continue
        assignment[v] = target
        loads[source] -= 1
        loads[target] += 1
    return assignment


def edge_cut_partition(
    graph: CSRGraph,
    num_parts: int,
    method: str = "greedy",
) -> PartitionResult:
    """Partition vertices into ``num_parts`` balanced parts, minimizing
    (heuristically) the number of cross-part edges.

    Methods: ``contiguous`` (vertex-range blocks, the trivial baseline),
    ``bfs`` (grow each part as a BFS ball), ``greedy`` (LDG streaming).
    All methods cap parts at ``ceil(n / num_parts)`` vertices; ``bfs``
    and ``greedy`` then run one pass of capacity-constrained boundary
    moves.
    """
    n = graph.num_vertices
    if num_parts <= 0:
        raise ValueError("num_parts must be positive")
    if num_parts > max(1, n):
        raise ValueError(f"num_parts={num_parts} exceeds num_vertices={n}")
    if method not in PARTITION_METHODS:
        raise ValueError(
            f"unknown partition method {method!r}; choose from {PARTITION_METHODS}"
        )
    base, extra = divmod(n, num_parts)
    capacities = base + (np.arange(num_parts) < extra).astype(np.int64)
    if method == "contiguous" or num_parts == 1:
        assignment = (np.arange(n, dtype=np.int64) * num_parts) // max(n, 1)
    else:
        # Built once per call: both stages walk the same symmetrized graph.
        undirected = _undirected_csr(graph)
        grow = _bfs_assignment if method == "bfs" else _greedy_assignment
        assignment = _refine_assignment(
            undirected, grow(undirected, num_parts, capacities),
            num_parts, capacities,
        )
    return PartitionResult(assignment=assignment, num_parts=num_parts, method=method)


# ----------------------------------------------------------------------
# Shard construction
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GraphShard:
    """One partition's rows as a self-contained local CSR.

    Rows are the part's owned vertices in ascending global order; column
    ids live in the shard-local space ``[0, num_local + num_halo)`` where
    ids below ``num_local`` are owned vertices (position in
    ``local_vertices``) and the rest are halo (ghost) vertices (position
    in ``halo_vertices``, offset by ``num_local``).  ``edge_positions``
    maps each shard edge back to its position in the global ``indices``
    array, so any per-edge global array (e.g. ψ normalization factors)
    restricts to the shard via ``array[edge_positions]``.
    """

    part: int
    local_vertices: np.ndarray
    halo_vertices: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    edge_positions: np.ndarray

    @property
    def num_local(self) -> int:
        return len(self.local_vertices)

    @property
    def num_halo(self) -> int:
        return len(self.halo_vertices)

    @property
    def num_edges(self) -> int:
        return len(self.indices)


def build_shards(graph: CSRGraph, assignment: np.ndarray) -> List[GraphShard]:
    """Split ``graph`` into per-part local CSR shards with halo maps.

    Fully vectorized: no per-vertex Python loops, so building shards of
    a million-edge graph stays in numpy.
    """
    n = graph.num_vertices
    assignment = np.asarray(assignment, dtype=np.int64)
    if len(assignment) != n:
        raise GraphError(
            f"assignment length {len(assignment)} != num_vertices {n}"
        )
    num_parts = int(assignment.max()) + 1 if n else 1
    degs = graph.degrees()
    shards: List[GraphShard] = []
    lookup = np.empty(n, dtype=np.int64)
    mark = np.zeros(n, dtype=bool)
    for part in range(num_parts):
        own = np.flatnonzero(assignment == part)
        flat = _flat_positions(graph.indptr, own)
        cols = graph.indices[flat]
        # Sorted, unique remote sources: a mark pass, not a sort.
        mark[cols[assignment[cols] != part]] = True
        halo = np.flatnonzero(mark)
        mark[halo] = False
        lookup[own] = np.arange(len(own), dtype=np.int64)
        lookup[halo] = len(own) + np.arange(len(halo), dtype=np.int64)
        indptr = np.zeros(len(own) + 1, dtype=np.int64)
        np.cumsum(degs[own], out=indptr[1:])
        shards.append(
            GraphShard(
                part=part,
                local_vertices=own,
                halo_vertices=halo,
                indptr=indptr,
                indices=lookup[cols].copy(),
                edge_positions=flat,
            )
        )
    return shards
