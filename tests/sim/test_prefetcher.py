"""Unit tests for the hardware stream prefetcher model."""

import numpy as np

from repro.graphs import load_dataset
from repro.sim.prefetcher import StreamPrefetcher
from repro.sim.trace import layout_for, vertex_trace


def sequential_trace(lines: int, start: int = 0):
    return [(start + i) * 64 for i in range(lines)]


class TestTraining:
    def test_sequential_stream_gets_covered(self):
        prefetcher = StreamPrefetcher()
        stats = prefetcher.run_trace(sequential_trace(200))
        assert stats.coverage > 0.8 and stats.accuracy > 0.8

    def test_random_trace_trains_poorly(self):
        rng = np.random.default_rng(0)
        trace = (rng.integers(0, 10_000, size=500) * 64).tolist()
        stats = StreamPrefetcher().run_trace(trace)
        assert stats.coverage < 0.1

    def test_needs_threshold_consecutive_steps(self):
        prefetcher = StreamPrefetcher()
        assert prefetcher.train_threshold == 2
        prefetcher.run_trace(sequential_trace(1))
        assert prefetcher.stats.streams_confirmed == 0
        prefetcher.run_trace(sequential_trace(2, start=100))
        assert prefetcher.stats.streams_confirmed >= 1

    def test_same_line_bytes_do_not_advance_stream(self):
        prefetcher = StreamPrefetcher()
        prefetcher.run_trace([0, 8, 16])  # all in line 0
        assert prefetcher.stats.streams_confirmed == 0

    def test_multiple_interleaved_streams(self):
        a = sequential_trace(50, start=0)
        b = sequential_trace(50, start=100_000)
        interleaved = [line for pair in zip(a, b) for line in pair]
        stats = StreamPrefetcher().run_trace(interleaved)
        assert stats.coverage > 0.6

    def test_reset(self):
        prefetcher = StreamPrefetcher()
        prefetcher.run_trace(sequential_trace(50))
        prefetcher.reset()
        assert prefetcher.stats.accesses == 0


class TestGatherDefeatsPrefetching:
    def test_aggregation_trace_poorly_covered(self):
        """The §4.1 argument: gathers jump between short vector bursts, so
        stream prefetchers cover little of the aggregation traffic."""
        graph = load_dataset("products", scale=0.05, seed=0)
        layout = layout_for(graph, 32)  # 2 lines per feature vector
        trace = []
        for v in range(graph.num_vertices):
            trace.extend(vertex_trace(graph, layout, v).gather_lines)
        stats = StreamPrefetcher().run_trace(trace)
        assert stats.coverage < 0.45

    def test_wide_vectors_train_better(self):
        """Longer per-vector bursts (more lines per row) give streams a
        chance — the flip side of the same argument."""
        graph = load_dataset("products", scale=0.05, seed=0)
        def coverage(width):
            layout = layout_for(graph, width)
            trace = [line for v in range(0, graph.num_vertices, 2)
                     for line in vertex_trace(graph, layout, v).gather_lines]
            return StreamPrefetcher().run_trace(trace).coverage

        assert coverage(256) > coverage(32)  # 16 lines a row against 2
