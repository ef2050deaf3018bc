"""Unit tests for chunk planning and the deterministic dynamic assignment."""

import numpy as np
import pytest

from repro.graphs import power_law_graph
from repro.parallel import (
    assign_chunks,
    assignment_imbalance,
    build_chunk_plan,
)


class TestBuildChunkPlan:
    def test_chunks_cover_every_position_once(self, small_products):
        plan = build_chunk_plan(small_products, task_size=64)
        positions = []
        for chunk in plan.chunks:
            positions.extend(range(chunk.start, chunk.stop))
        assert positions == list(range(small_products.num_vertices))

    def test_chunk_count_matches_ceil_division(self, small_products):
        n = small_products.num_vertices
        for task_size in (1, 7, 64, n, n + 100):
            plan = build_chunk_plan(small_products, task_size)
            assert plan.num_chunks == -(-n // task_size)

    def test_costs_price_the_gather_work(self, small_products):
        plan = build_chunk_plan(small_products, task_size=32)
        total = small_products.num_edges + small_products.num_vertices
        assert plan.total_cost == pytest.approx(total)

    def test_order_permutes_costs(self, small_products):
        order = np.random.default_rng(0).permutation(small_products.num_vertices)
        plan = build_chunk_plan(small_products, task_size=32, order=order)
        degs = small_products.degrees()[order]
        expected = float((degs[:32] + 1).sum())
        assert plan.chunks[0].cost == pytest.approx(expected)

    def test_natural_order_chunks_are_contiguous(self, small_products):
        n = small_products.num_vertices
        for order in (None, np.arange(n, dtype=np.int64)):
            plan = build_chunk_plan(small_products, task_size=48, order=order)
            assert all(chunk.contiguous for chunk in plan.chunks)

    def test_contiguity_is_decided_per_chunk(self, small_products):
        """The flag equals the per-chunk ``np.diff`` test the kernel and
        the executor used to repeat on every pass."""
        n = small_products.num_vertices
        order = np.arange(n, dtype=np.int64)
        order[40:60] = order[40:60][::-1]  # scramble inside chunk 1 only
        order[96], order[n - 1] = order[n - 1], order[96]  # break chunk 3 at its first id
        shuffled = np.random.default_rng(1).permutation(n)
        for candidate in (order, shuffled):
            plan = build_chunk_plan(small_products, task_size=32, order=candidate)
            for chunk in plan.chunks:
                ids = candidate[chunk.start : chunk.stop]
                assert chunk.contiguous == bool((np.diff(ids) == 1).all())
        plan = build_chunk_plan(small_products, task_size=32, order=order)
        assert [c.contiguous for c in plan.chunks[:5]] == [
            True, False, True, False, True
        ]

    def test_invalid_inputs(self, small_products):
        with pytest.raises(ValueError):
            build_chunk_plan(small_products, task_size=0)
        with pytest.raises(ValueError):
            build_chunk_plan(small_products, 16, order=np.arange(3))


class TestAssignChunks:
    def test_every_chunk_assigned_exactly_once(self, small_products):
        plan = build_chunk_plan(small_products, task_size=16)
        assignment = assign_chunks(plan, workers=4)
        indices = sorted(c.index for chunks in assignment for c in chunks)
        assert indices == list(range(plan.num_chunks))

    def test_deterministic_across_calls(self, small_products):
        plan = build_chunk_plan(small_products, task_size=16)
        first = assign_chunks(plan, workers=4)
        second = assign_chunks(plan, workers=4)
        assert [[c.index for c in w] for w in first] == [
            [c.index for c in w] for w in second
        ]

    def test_dynamic_beats_round_robin_on_skew(self):
        graph = power_law_graph(512, avg_degree=12.0, seed=7)
        plan = build_chunk_plan(graph, task_size=16)
        dynamic = assignment_imbalance(assign_chunks(plan, workers=4))
        # round-robin (OpenMP static) assignment of the same chunks
        static = [plan.chunks[i::4] for i in range(4)]
        assert dynamic <= assignment_imbalance(list(map(list, static))) + 1e-9

    def test_more_workers_than_chunks(self, small_products):
        plan = build_chunk_plan(small_products, task_size=small_products.num_vertices)
        assignment = assign_chunks(plan, workers=4)
        assert sum(len(w) for w in assignment) == 1
        assert len(assignment) == 4

    def test_invalid_worker_count(self, small_products):
        plan = build_chunk_plan(small_products, task_size=16)
        with pytest.raises(ValueError):
            assign_chunks(plan, workers=0)
