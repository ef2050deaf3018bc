"""Unit tests for block assembly and the serving block forward."""

import numpy as np
import pytest

from repro.graphs import CSRGraph, power_law_graph
from repro.gpu.sampler import sample_blocks
from repro.nn import build_model
from repro.nn import minibatch
from repro.nn.minibatch import assemble_batch, block_forward, full_neighbor_blocks


class TestFullNeighborBlocks:
    def test_empty_frontier_yields_empty_blocks(self, tiny_graph):
        batch = full_neighbor_blocks(tiny_graph, np.array([], dtype=np.int64), 2)
        assert len(batch.blocks) == 2
        for block in batch.blocks:
            assert block.dst_vertices.size == 0
            assert block.edge_dst.size == 0
        assert batch.seed_vertices.size == 0

    def test_isolated_vertex_gets_only_its_self_edge(self, tiny_graph):
        # vertex 4 has no in-edges; the block must still carry its self
        # edge so the forward produces a defined (not garbage) row
        batch = full_neighbor_blocks(tiny_graph, np.array([4]), 1)
        block = batch.blocks[0]
        np.testing.assert_array_equal(block.dst_vertices, [4])
        np.testing.assert_array_equal(block.edge_dst, [4])
        np.testing.assert_array_equal(block.edge_src, [4])

    def test_two_hop_frontier_expands(self, tiny_graph):
        # seeds {0}: 1-hop N(0) = {1, 2}; input block covers 2 hops
        batch = full_neighbor_blocks(tiny_graph, np.array([0]), 2)
        np.testing.assert_array_equal(batch.blocks[-1].dst_vertices, [0])
        np.testing.assert_array_equal(batch.blocks[-1].src_vertices, [0, 1, 2])
        np.testing.assert_array_equal(
            batch.blocks[0].dst_vertices, [0, 1, 2]
        )
        assert 3 in batch.blocks[0].src_vertices  # 2's neighbor

    def test_num_layers_validated(self, tiny_graph):
        with pytest.raises(ValueError):
            full_neighbor_blocks(tiny_graph, np.array([0]), 0)


def _forward(graph, vertices, seed, model_type="gcn", model_seed=1, hops=2):
    """``(result, oracle)``: a 6 -> 4 -> 3 model's block forward over the
    ``hops`` assembled around ``vertices``, and its ``predict``."""
    features = np.random.default_rng(seed).standard_normal((5, 6)).astype(np.float32)
    model = build_model(model_type, 6, 4, 3, num_layers=2, seed=model_seed)
    batch = assemble_batch(graph, np.asarray(vertices, dtype=np.int64), hops)
    result = block_forward(graph, model, batch, features)
    return result, model.predict(graph, features)


class TestBlockForward:
    @pytest.mark.parametrize("model_type", ["gcn", "sage"])
    def test_exact_assembly_matches_full_graph_predict(
        self, tiny_graph, model_type
    ):
        result, oracle = _forward(tiny_graph, np.arange(5), 3, model_type, 2)
        np.testing.assert_allclose(result.logits, oracle, atol=1e-4)

    def test_repeated_query_vertices_dedup_to_unique_rows(self, tiny_graph):
        requested = np.array([3, 0, 3, 3])
        result, _ = _forward(tiny_graph, requested, 4, model_seed=0)
        np.testing.assert_array_equal(result.query_vertices, [0, 3])
        assert result.logits.shape[0] == 2
        # positional mapping recovers each requested row
        rows = np.searchsorted(result.query_vertices, requested)
        np.testing.assert_array_equal(rows, [1, 0, 1, 1])

    def test_isolated_vertex_logits_match_predict(self, tiny_graph):
        result, oracle = _forward(tiny_graph, [4], 5)
        np.testing.assert_allclose(result.logits[0], oracle[4], atol=1e-4)

    def test_empty_batch_forward(self, tiny_graph):
        result, _ = _forward(tiny_graph, [], 6)
        assert result.logits.shape == (0, 3)
        assert result.embeddings.shape[0] == 0

    def test_embeddings_are_last_layer_input(self, tiny_graph):
        result, _ = _forward(tiny_graph, [1, 2], 7)
        assert result.embeddings.shape == (2, 4)  # hidden width

    def test_block_count_must_match_model_depth(self, tiny_graph):
        with pytest.raises(ValueError):
            _forward(tiny_graph, [0], 8, hops=1)


class TestBlockForwardOrder:
    """A block forward runs each layer in the order the full-graph
    forward does (``transform_first``): a narrowing layer gathers
    ``out``-wide ``h W`` rows, not ``in``-wide ``h``."""

    @pytest.fixture()
    def widths(self, monkeypatch):
        """Operand width of every block aggregation, in call order."""
        seen = []
        original = minibatch._block_aggregate_vectorized

        def spy(block, h_src, weights, dst_rows):
            seen.append(h_src.shape[1])
            return original(block, h_src, weights, dst_rows)

        monkeypatch.setattr(minibatch, "_block_aggregate_vectorized", spy)
        return seen

    @pytest.fixture(scope="class")
    def task(self):
        graph = power_law_graph(300, 6.0, seed=3)
        rng = np.random.default_rng(5)
        features = rng.standard_normal((graph.num_vertices, 12)).astype(np.float32)
        model = build_model("gcn", 12, 10, 6, num_layers=2, seed=2)
        return graph, features, model

    def test_narrowing_last_layer_gathers_out_wide_rows(self, task, widths):
        graph, features, model = task
        batch = assemble_batch(graph, np.arange(0, 300, 7), 2)
        block_forward(graph, model, batch, features)
        # Layer 0's input is static, so it aggregates first (12 wide);
        # layer 1 narrows 10 -> 6 and gathers h W.
        assert widths == [12, 6]

    def test_refill_after_a_kept_first_aggregation(self, task, widths):
        graph, features, model = task
        _, caches = model.forward(graph, features)
        batch = assemble_batch(graph, np.array([0, 5, 299]), 1)
        result = block_forward(
            graph, model, batch, features, first_aggregation=caches[0].a
        )
        assert widths == [6]
        np.testing.assert_allclose(
            result.logits, model.predict(graph, features)[[0, 5, 299]],
            atol=1e-5,
        )


def _per_edge_forward(graph, model, batch, features):
    """One edge at a time in float64 — the semantics the vectorized
    block forward must keep, duplicates and all."""
    d_hat = graph.degrees().astype(np.float64) + 1.0
    h = features[batch.blocks[0].src_vertices].astype(np.float64)
    for layer, block in zip(model.layers, batch.blocks):
        dst_pos = {int(v): i for i, v in enumerate(block.dst_vertices)}
        src_pos = {int(v): i for i, v in enumerate(block.src_vertices)}
        edges_into = np.bincount(
            [dst_pos[int(d)] for d in block.edge_dst],
            minlength=len(block.dst_vertices),
        )
        a = np.zeros((len(block.dst_vertices), h.shape[1]))
        for d, s in zip(block.edge_dst, block.edge_src):
            if layer.aggregator == "gcn":
                weight = 1.0 / np.sqrt(d_hat[d] * d_hat[s])
            else:
                weight = 1.0 / edges_into[dst_pos[int(d)]]
            a[dst_pos[int(d)]] += weight * h[src_pos[int(s)]]
        pre = a @ layer.weight + layer.bias
        h = np.maximum(pre, 0.0) if layer.activation else pre
    return h


class TestBlockForwardThroughTheCore:
    """Serving answers from the shared aggregation core."""

    @pytest.fixture(scope="class")
    def looped_graph(self, small_products):
        """The products twin plus a self loop on every fourth vertex, so
        a sampled block (neighbors + the appended self edge) holds some
        edges twice."""
        n = small_products.num_vertices
        dst = np.repeat(np.arange(n), small_products.degrees())
        loops = np.arange(0, n, 4)
        edges = np.concatenate([
            np.stack([dst, small_products.indices], axis=1),
            np.stack([loops, loops], axis=1),
        ])
        return CSRGraph.from_edges(n, edges)

    @pytest.mark.parametrize("model_type", ["gcn", "sage"])
    def test_exact_blocks_match_model_predict(self, small_products, model_type):
        n = small_products.num_vertices
        rng = np.random.default_rng(11)
        features = rng.standard_normal((n, 24)).astype(np.float32)
        model = build_model(model_type, 24, 32, 7, num_layers=2, seed=5)
        oracle = model.predict(small_products, features)
        query = rng.choice(n, size=40, replace=False)
        batch = assemble_batch(small_products, query, 2)
        result = block_forward(small_products, model, batch, features)
        assert result.logits.dtype == np.float32
        np.testing.assert_allclose(
            result.logits, oracle[result.query_vertices], atol=1e-4
        )

    @pytest.mark.parametrize("model_type", ["gcn", "sage"])
    def test_sampled_blocks_with_duplicate_edges_keep_per_edge_semantics(
        self, looped_graph, model_type
    ):
        n = looped_graph.num_vertices
        rng = np.random.default_rng(12)
        features = rng.standard_normal((n, 24)).astype(np.float32)
        model = build_model(model_type, 24, 32, 7, num_layers=2, seed=6)
        batch = sample_blocks(
            looped_graph, np.arange(0, n, 3), (6, 6), np.random.default_rng(1)
        )
        for block in batch.blocks:
            pairs = np.stack([block.edge_dst, block.edge_src], axis=1)
            assert len(np.unique(pairs, axis=0)) < len(pairs)  # duplicates
        result = block_forward(looped_graph, model, batch, features)
        np.testing.assert_allclose(
            result.logits,
            _per_edge_forward(looped_graph, model, batch, features),
            atol=1e-4,
        )
