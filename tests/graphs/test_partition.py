"""Unit tests for task partitioning / load-balance analysis (§4.1)."""

import hashlib

import numpy as np
import pytest

from repro.graphs import (
    CSRGraph, GraphError, apply_order, community_graph, grid_graph,
    load_dataset, power_law_graph, star_graph, uniform_graph,
)
from repro.graphs.partition import (
    PARTITION_METHODS, PartitionResult, _bfs_assignment,
    _greedy_assignment, _undirected_csr, balance_comparison, build_shards,
    dynamic_schedule, edge_cut_partition, static_cyclic_schedule,
    static_schedule, task_weights,
)


class TestTaskWeights:
    def test_total_is_gathers(self, small_uniform):
        weights = task_weights(small_uniform, 16)
        assert weights.sum() == small_uniform.num_edges + small_uniform.num_vertices

    def test_task_count(self, small_uniform):
        assert len(task_weights(small_uniform, 16)) == (small_uniform.num_vertices + 15) // 16

    def test_order_reshuffles_weights(self):
        """Section 4.4's order is a relabel of the graph: the hub's
        weight moves with it."""
        graph = star_graph(63)  # hub weight concentrated in task 0
        natural = task_weights(graph, 8)
        moved = task_weights(apply_order(graph, np.arange(63, -1, -1)), 8)
        assert natural[0] != moved[0]
        assert natural.sum() == moved.sum()

    def test_invalid_task_size(self, small_uniform):
        with pytest.raises(ValueError):
            task_weights(small_uniform, 0)

    def test_matches_per_task_loop(self, small_products):
        """The reduceat implementation must be *exactly* the old per-task
        Python loop — same float64 accumulation order, bit for bit."""
        task_size = 16
        degs = small_products.degrees()
        n = small_products.num_vertices
        num_tasks = (n + task_size - 1) // task_size
        expected = np.zeros(num_tasks)
        for task in range(num_tasks):
            lo = task * task_size
            expected[task] = float((degs[lo:min(lo + task_size, n)] + 1).sum())
        np.testing.assert_array_equal(task_weights(small_products, task_size), expected)


class TestSchedules:
    def test_dynamic_never_worse_than_static(self):
        graph = load_dataset("products", scale=0.1, seed=0)
        static, dynamic = balance_comparison(graph, task_size=16, threads=8)
        assert dynamic.makespan <= static.makespan

    def test_skewed_graph_needs_dynamic(self):
        """Power-law degrees create heavy tasks; dynamic scheduling cuts
        the makespan — the paper's §4.1 motivation."""
        graph = load_dataset("twitter", scale=0.1, seed=0)
        static, dynamic = balance_comparison(graph, task_size=8, threads=8)
        assert dynamic.imbalance < static.imbalance

    def test_uniform_graph_balanced_either_way(self):
        graph = uniform_graph(512, 8.0, seed=0)
        static, dynamic = balance_comparison(graph, task_size=16, threads=8)
        assert static.imbalance < 1.5
        assert dynamic.imbalance < 1.2

    def test_work_conserved(self):
        graph = load_dataset("products", scale=0.1, seed=0)
        weights = task_weights(graph, 32)
        for schedule in (static_schedule, dynamic_schedule):
            assert schedule(weights, 8).thread_work.sum() == pytest.approx(weights.sum())

    def test_single_thread_degenerate(self):
        weights = np.array([3.0, 5.0])
        report = dynamic_schedule(weights, 1)
        assert (report.makespan, report.imbalance) == (8.0, 1.0)

    def test_invalid_threads(self):
        for schedule in (static_schedule, dynamic_schedule, static_cyclic_schedule):
            with pytest.raises(ValueError):
                schedule(np.array([1.0]), 0)

    def test_static_assigns_contiguous_blocks(self):
        """OpenMP ``schedule(static)`` gives each thread ONE contiguous
        block of ceil(n/threads) iterations — not a round-robin."""
        weights = np.arange(1.0, 8.0)  # 7 tasks, 3 threads -> block of 3
        report = static_schedule(weights, 3)
        assert report.policy == "static"
        np.testing.assert_array_equal(report.thread_work, [1 + 2 + 3, 4 + 5 + 6, 7.0])

    def test_cyclic_assigns_round_robin(self):
        weights = np.arange(1.0, 8.0)
        report = static_cyclic_schedule(weights, 3)
        assert report.policy == "static_cyclic"
        np.testing.assert_array_equal(report.thread_work, [1 + 4 + 7, 2 + 5, 3 + 6])

    def test_block_and_cyclic_differ_on_sorted_weights(self):
        """Monotone weights are the tell: blocks concentrate the heavy
        tail on the last thread while round-robin spreads it."""
        weights = np.arange(64, dtype=np.float64) ** 2
        block = static_schedule(weights, 8)
        cyclic = static_cyclic_schedule(weights, 8)
        assert block.imbalance > cyclic.imbalance
        assert block.makespan == pytest.approx(weights[-8:].sum())

    def test_threads_exceed_tasks(self):
        weights = np.array([2.0, 3.0])
        report = static_schedule(weights, 4)
        assert report.thread_work.sum() == pytest.approx(5.0)
        assert (report.thread_work[2:] == 0).all()


class TestEdgeCutPartition:
    @pytest.mark.parametrize("method", PARTITION_METHODS)
    def test_every_vertex_assigned(self, small_community, method):
        result = edge_cut_partition(small_community, 4, method=method)
        assert result.assignment.shape == (small_community.num_vertices,)
        assert 0 <= result.assignment.min() and result.assignment.max() < 4
        assert result.part_sizes().sum() == small_community.num_vertices

    @pytest.mark.parametrize("method", PARTITION_METHODS)
    def test_capacity_respected(self, small_community, method):
        n = small_community.num_vertices
        result = edge_cut_partition(small_community, 4, method=method)
        assert result.part_sizes().max() <= -(-n // 4)  # ceil(n / 4)

    def test_divisible_sizes_are_exact(self):
        graph = uniform_graph(120, 6.0, seed=2)
        for method in PARTITION_METHODS:
            result = edge_cut_partition(graph, 4, method=method)
            np.testing.assert_array_equal(result.part_sizes(), [30, 30, 30, 30])
            assert result.balance == pytest.approx(1.0)

    def test_locality_aware_beats_contiguous_on_communities(self):
        """Community graphs reorder vertices randomly, so contiguous
        blocks cut almost everything; BFS/greedy must recover most of
        the community structure."""
        graph = community_graph(400, avg_degree=8.0, community_size=100,
                                within_fraction=0.95, seed=7)
        contiguous = edge_cut_partition(graph, 4, method="contiguous")
        for method in ("bfs", "greedy"):
            result = edge_cut_partition(graph, 4, method=method)
            assert result.edge_cut(graph) < contiguous.edge_cut(graph)

    @pytest.mark.parametrize("method", ("bfs", "greedy"))
    def test_refinement_never_worsens_cut(self, method):
        graph = power_law_graph(300, avg_degree=6.0, seed=5)
        grow = _bfs_assignment if method == "bfs" else _greedy_assignment
        raw = PartitionResult(
            grow(_undirected_csr(graph), 3, np.full(3, 100)), 3, method)
        refined = edge_cut_partition(graph, 3, method=method)
        assert refined.edge_cut(graph) <= raw.edge_cut(graph)
        assert refined.part_sizes().max() <= raw.part_sizes().max()

    def test_deterministic(self, small_community):
        a = edge_cut_partition(small_community, 4, method="greedy")
        b = edge_cut_partition(small_community, 4, method="greedy")
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_single_part(self, small_uniform):
        result = edge_cut_partition(small_uniform, 1)
        assert (result.assignment == 0).all()
        assert (result.edge_cut(small_uniform), result.cut_fraction(small_uniform)) == (0, 0.0)

    def test_errors(self, small_uniform):
        for parts, method in ((0, "greedy"), (small_uniform.num_vertices + 1, "greedy"),
                              (2, "metis")):
            with pytest.raises(ValueError):
                edge_cut_partition(small_uniform, parts, method=method)

    def test_cut_fraction_matches_brute_force(self, tiny_graph):
        result = edge_cut_partition(tiny_graph, 2, method="contiguous")
        assign = result.assignment
        cut = 0
        for dst in range(tiny_graph.num_vertices):
            lo, hi = tiny_graph.indptr[dst], tiny_graph.indptr[dst + 1]
            for src in tiny_graph.indices[lo:hi]:
                cut += assign[dst] != assign[src]
        assert result.edge_cut(tiny_graph) == cut


#: SHA-1 of the int64 ``assignment`` bytes for the products twin at
#: scale 0.3, seed 7, per part count.  The three-part entries were
#: recorded from the ``np.unique(axis=0)`` / ``np.add.at`` partitioner,
#: the two- and four-part ones from the per-vertex numpy LDG loop
#: (:func:`_ldg_oracle`); every later partitioner reproduces them all.
GOLDEN_ASSIGNMENTS = {
    2: {
        "contiguous": "5ee0cbbbfb44d4891be7d467bc1c9396f6b5ffac",
        "bfs": "2ec86a7ed9d17b298156f3c51f1fa67ef7d73889",
        "greedy": "3e3bfe3c12e09baabb95153453fb136d32ffbb5d",
    },
    3: {
        "contiguous": "dcb8937ffdb09fb3f6eb370e08233d97ece27657",
        "bfs": "34b6f725013cfa9836a2340d31b64f0dc4981a02",
        "greedy": "4c3527aeadffae2e3c4ec34c7e6714478ceffb59",
    },
    4: {
        "contiguous": "ef7ae5e295f881521331a0584c8e97b10596c895",
        "bfs": "7e6c548c9add56d55144efcce0b59fa6e663153d",
        "greedy": "435d848c41b7610420dba1f94e49df39a873b484",
    },
}


def _ldg_oracle(undirected, num_parts, capacities):
    """The per-vertex numpy LDG loop ``_greedy_assignment`` replaced:
    one array score per vertex, ``np.argmax`` picks the part."""
    u_indptr, u_indices = undirected
    n = len(u_indptr) - 1
    order = np.argsort(-np.diff(u_indptr), kind="stable")
    assignment = np.full(n, -1, dtype=np.int64)
    loads = np.zeros(num_parts, dtype=np.int64)
    caps = capacities.astype(np.float64)
    for v in order:
        nbr_parts = assignment[u_indices[u_indptr[v] : u_indptr[v + 1]]]
        nbr_parts = nbr_parts[nbr_parts != -1]
        penalty = 1.0 - loads / caps
        if len(nbr_parts):
            score = np.bincount(nbr_parts, minlength=num_parts) * penalty
        else:
            score = penalty
        score[loads >= capacities] = -np.inf
        assignment[v] = int(np.argmax(score))
        loads[assignment[v]] += 1
    return assignment


def _with_isolated(graph, extra):
    """``graph`` plus ``extra`` vertices with no edges at all."""
    dst = np.repeat(np.arange(graph.num_vertices), graph.degrees())
    edges = np.stack([dst, graph.indices], axis=1)
    return CSRGraph.from_edges(graph.num_vertices + extra, edges)


GRAPH_FAMILIES = {
    "power_law": lambda seed: power_law_graph(150, avg_degree=3.0, seed=seed),
    "community": lambda seed: community_graph(160, avg_degree=4.0,
                                              community_size=40, seed=seed),
    # Sparse enough that some vertices are isolated; the 7 extra
    # ones are isolated for sure.
    "uniform": lambda seed: _with_isolated(uniform_graph(120, 1.0, seed=seed), 7),
}


class TestPartitionDeterminism:
    @pytest.mark.parametrize("method", PARTITION_METHODS)
    def test_assignment_matches_golden_hash(self, method):
        graph = load_dataset("products", scale=0.3, seed=7)
        for parts, golden in GOLDEN_ASSIGNMENTS.items():
            assignment = edge_cut_partition(graph, parts, method=method).assignment
            assert assignment.dtype == np.int64
            digest = hashlib.sha1(assignment.tobytes()).hexdigest()
            assert digest == golden[method], f"{parts} parts"

    def test_bfs_tie_order_matches_golden_hash(self):
        """A grid's degrees are 2, 3 or 4, so most of the BFS seed order
        is ties between more than 16 vertices, where numpy's default
        sort is not stable: the stable sort fixes which tie seeds first."""
        assignment = edge_cut_partition(grid_graph(10), 4, method="bfs")
        digest = hashlib.sha1(assignment.assignment.tobytes()).hexdigest()
        assert digest == "a561af7f64e38a497c5f874e1e75ea18cff6b5d4"

    @pytest.mark.parametrize("parts", (2, 3, 4, 5))
    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_greedy_matches_the_numpy_ldg_loop(self, family, parts):
        """Scalar scoring picks the part the array expressions picked,
        tie and full-part rules included, on every vertex."""
        isolated_seen = False
        for seed in range(8):
            graph = GRAPH_FAMILIES[family](seed)
            n = graph.num_vertices
            base, extra = divmod(n, parts)
            capacities = base + (np.arange(parts) < extra).astype(np.int64)
            undirected = _undirected_csr(graph)
            isolated_seen |= bool((np.diff(undirected[0]) == 0).any())
            got = _greedy_assignment(undirected, parts, capacities)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, _ldg_oracle(undirected, parts, capacities),
                                          err_msg=f"{family} seed {seed}")
        if family == "uniform":
            assert isolated_seen  # the no-neighbour penalty branch ran

    @pytest.mark.parametrize("seed", range(8))
    def test_undirected_csr_matches_pairwise_unique(self, seed):
        """The scalar-key dedupe must build exactly what sorting the
        (row, col) pairs did — on multigraphs with self loops too."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 6 * n)), 2))
        edges = np.concatenate([edges, edges[: len(edges) // 3]])  # duplicates
        loops = rng.integers(0, n, size=3)
        edges = np.concatenate([edges, np.stack([loops, loops], axis=1)])
        graph = CSRGraph.from_edges(n, edges, deduplicate=False)

        dst = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
        rows = np.concatenate([dst, graph.indices])
        cols = np.concatenate([graph.indices, dst])
        pairs = np.stack([rows, cols], axis=1)[rows != cols]
        if len(pairs):
            pairs = np.unique(pairs, axis=0)
        expected_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs[:, 0], minlength=n), out=expected_indptr[1:])

        indptr, indices = _undirected_csr(graph)
        np.testing.assert_array_equal(indptr, expected_indptr)
        np.testing.assert_array_equal(indices, pairs[:, 1])
        assert indices.dtype == np.int64


class TestBuildShards:
    @pytest.fixture(scope="class")
    def sharded(self, small_community):
        assignment = edge_cut_partition(small_community, 3, method="greedy").assignment
        return small_community, assignment, build_shards(small_community, assignment)

    def test_locals_cover_all_vertices(self, sharded):
        graph, assignment, shards = sharded
        union = np.concatenate([s.local_vertices for s in shards])
        np.testing.assert_array_equal(np.sort(union), np.arange(graph.num_vertices))
        for shard in shards:
            np.testing.assert_array_equal(shard.local_vertices,
                                          np.sort(shard.local_vertices))
            assert (assignment[shard.local_vertices] == shard.part).all()

    def test_halo_is_exactly_remote_in_neighbors(self, sharded):
        graph, assignment, shards = sharded
        for shard in shards:
            expected = set()
            for dst in shard.local_vertices:
                lo, hi = graph.indptr[dst], graph.indptr[dst + 1]
                for src in graph.indices[lo:hi]:
                    if assignment[src] != shard.part:
                        expected.add(int(src))
            assert set(shard.halo_vertices.tolist()) == expected
            assert (assignment[shard.halo_vertices] != shard.part).all()

    def test_local_columns_decode_to_global(self, sharded):
        """Remapped column ids must round-trip to the original global
        sources: ids < num_local index local_vertices, the rest halo."""
        graph, _, shards = sharded
        for shard in shards:
            vocab = np.concatenate([shard.local_vertices, shard.halo_vertices])
            assert 0 <= shard.indices.min() and shard.indices.max() < len(vocab)
            np.testing.assert_array_equal(vocab[shard.indices],
                                          graph.indices[shard.edge_positions])

    def test_edge_positions_restrict_per_edge_arrays(self, sharded):
        graph, _, shards = sharded
        edge_tag = np.arange(graph.num_edges, dtype=np.int64) * 7 + 1
        seen = np.concatenate([edge_tag[s.edge_positions] for s in shards])
        # Every global edge appears in exactly one shard.
        np.testing.assert_array_equal(np.sort(seen), np.sort(edge_tag))

    def test_indptr_matches_degrees(self, sharded):
        graph, _, shards = sharded
        degs = graph.degrees()
        for shard in shards:
            np.testing.assert_array_equal(np.diff(shard.indptr), degs[shard.local_vertices])
            assert shard.indptr[-1] == shard.num_edges

    def test_length_mismatch_raises(self, small_uniform):
        with pytest.raises(GraphError):
            build_shards(small_uniform, np.zeros(3, dtype=np.int64))
