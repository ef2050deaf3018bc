"""Unit tests for mini-batch (sampled) training and block assembly."""

import numpy as np
import pytest

from repro.gpu import sample_blocks
from repro.graphs import CSRGraph, planted_partition_graph
from repro.nn import Adam, build_model
from repro.nn.minibatch import (
    MiniBatchTrainer,
    assemble_batch,
    block_aggregate,
    block_forward,
    full_neighbor_blocks,
)


@pytest.fixture(scope="module")
def task():
    graph, labels = planted_partition_graph(160, 3, p_in=0.12, p_out=0.01, seed=7)
    rng = np.random.default_rng(7)
    features = rng.standard_normal((160, 8)).astype(np.float32)
    features[:, 0] += labels.astype(np.float32)
    return graph, features, labels


class TestBlockAggregate:
    def test_mean_of_sampled_neighbors(self):
        edge_dst = np.array([5, 5, 9])
        edge_src = np.array([1, 3, 3])
        dst = np.array([5, 9])
        h_src = np.array([[2.0], [4.0]], dtype=np.float32)  # rows for 1, 3
        src_index = {1: 0, 3: 1}
        out = block_aggregate(edge_dst, edge_src, dst, h_src, src_index)
        np.testing.assert_allclose(out[0], 3.0)  # mean(2, 4)
        np.testing.assert_allclose(out[1], 4.0)

    def test_isolated_destination_zero(self):
        out = block_aggregate(
            np.array([]), np.array([]), np.array([7]),
            np.zeros((0, 2), np.float32), {},
        )
        np.testing.assert_array_equal(out, 0.0)


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

    def test_assemble_batch_routes_fanouts(self, tiny_graph):
        sampled = assemble_batch(
            tiny_graph, np.array([3]), 2, fanouts=(2, 2),
            rng=np.random.default_rng(0),
        )
        assert len(sampled.blocks) == 2
        with pytest.raises(ValueError):
            assemble_batch(tiny_graph, np.array([3]), 2, fanouts=(2,))


class TestBlockForward:
    @pytest.mark.parametrize("model_type", ["gcn", "sage"])
    def test_exact_assembly_matches_full_graph_predict(
        self, tiny_graph, model_type
    ):
        rng = np.random.default_rng(3)
        features = rng.standard_normal((5, 6)).astype(np.float32)
        model = build_model(model_type, 6, 4, 3, num_layers=2, seed=2)
        oracle = model.predict(tiny_graph, features)
        batch = assemble_batch(tiny_graph, np.arange(5), 2)
        result = block_forward(tiny_graph, model, batch, features)
        np.testing.assert_allclose(result.logits, oracle, atol=1e-4)

    def test_repeated_query_vertices_dedup_to_unique_rows(self, tiny_graph):
        rng = np.random.default_rng(4)
        features = rng.standard_normal((5, 6)).astype(np.float32)
        model = build_model("gcn", 6, 4, 3, num_layers=2, seed=0)
        requested = np.array([3, 0, 3, 3])
        batch = assemble_batch(tiny_graph, requested, 2)
        result = block_forward(tiny_graph, model, batch, features)
        np.testing.assert_array_equal(result.query_vertices, [0, 3])
        assert result.logits.shape[0] == 2
        # positional mapping recovers each requested row
        rows = np.searchsorted(result.query_vertices, requested)
        np.testing.assert_array_equal(rows, [1, 0, 1, 1])

    def test_isolated_vertex_logits_match_predict(self, tiny_graph):
        rng = np.random.default_rng(5)
        features = rng.standard_normal((5, 6)).astype(np.float32)
        model = build_model("gcn", 6, 4, 3, num_layers=2, seed=1)
        oracle = model.predict(tiny_graph, features)
        batch = assemble_batch(tiny_graph, np.array([4]), 2)
        result = block_forward(tiny_graph, model, batch, features)
        np.testing.assert_allclose(result.logits[0], oracle[4], atol=1e-4)

    def test_empty_batch_forward(self, tiny_graph):
        rng = np.random.default_rng(6)
        features = rng.standard_normal((5, 6)).astype(np.float32)
        model = build_model("gcn", 6, 4, 3, num_layers=2, seed=1)
        batch = assemble_batch(tiny_graph, np.array([], dtype=np.int64), 2)
        result = block_forward(tiny_graph, model, batch, features)
        assert result.logits.shape == (0, 3)
        assert result.embeddings.shape[0] == 0

    def test_embeddings_are_last_layer_input(self, tiny_graph):
        rng = np.random.default_rng(7)
        features = rng.standard_normal((5, 6)).astype(np.float32)
        model = build_model("gcn", 6, 4, 3, num_layers=2, seed=1)
        batch = assemble_batch(tiny_graph, np.array([1, 2]), 2)
        result = block_forward(tiny_graph, model, batch, features)
        assert result.embeddings.shape == (2, 4)  # hidden width

    def test_block_count_must_match_model_depth(self, tiny_graph):
        rng = np.random.default_rng(8)
        features = rng.standard_normal((5, 6)).astype(np.float32)
        model = build_model("gcn", 6, 4, 3, num_layers=2, seed=1)
        batch = assemble_batch(tiny_graph, np.array([0]), 1)
        with pytest.raises(ValueError):
            block_forward(tiny_graph, model, batch, features)


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
        batch = assemble_batch(
            looped_graph, np.arange(0, n, 3), 2, fanouts=(6, 6),
            rng=np.random.default_rng(1),
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


class TestMiniBatchTrainer:
    def test_requires_mean_aggregator(self, task):
        model = build_model("gcn", 8, 16, 3, num_layers=2)
        with pytest.raises(ValueError):
            MiniBatchTrainer(model, Adam(model, lr=0.01))

    def test_forward_shapes(self, task):
        graph, features, labels = task
        model = build_model("sage", 8, 16, 3, num_layers=2, seed=0)
        trainer = MiniBatchTrainer(model, Adam(model, lr=0.01))
        rng = np.random.default_rng(0)
        batch = sample_blocks(graph, np.arange(12), (5, 5), rng)
        logits, caches = trainer.forward_batch(batch, features)
        assert logits.shape == (len(batch.blocks[-1].dst_vertices), 3)
        assert len(caches) == 2

    def test_epoch_loss_decreases(self, task):
        graph, features, labels = task
        model = build_model("sage", 8, 16, 3, num_layers=2, seed=1)
        trainer = MiniBatchTrainer(model, Adam(model, lr=0.02))
        first = trainer.fit_epoch(graph, features, labels, 32, (5, 5), seed=0)
        for epoch in range(4):
            last = trainer.fit_epoch(
                graph, features, labels, 32, (5, 5), seed=epoch + 1
            )
        assert last < first

    def test_fanout_count_checked(self, task):
        graph, features, labels = task
        model = build_model("sage", 8, 16, 3, num_layers=2, seed=2)
        trainer = MiniBatchTrainer(model, Adam(model, lr=0.01))
        with pytest.raises(ValueError):
            trainer.fit_epoch(graph, features, labels, 32, (5,))

    def test_steps_recorded(self, task):
        graph, features, labels = task
        model = build_model("sage", 8, 16, 3, num_layers=2, seed=3)
        trainer = MiniBatchTrainer(model, Adam(model, lr=0.01))
        trainer.fit_epoch(graph, features, labels, 64, (4, 4), seed=0)
        assert len(trainer.steps) == (graph.num_vertices + 63) // 64
        assert all(s.sampled_edges > 0 for s in trainer.steps)

    def test_weights_usable_full_batch_afterwards(self, task):
        """Sampled-trained parameters plug straight into full-batch
        inference — the workflows share the model object."""
        graph, features, labels = task
        model = build_model("sage", 8, 16, 3, num_layers=2, seed=4)
        trainer = MiniBatchTrainer(model, Adam(model, lr=0.02))
        for epoch in range(3):
            trainer.fit_epoch(graph, features, labels, 32, (5, 5), seed=epoch)
        logits = model.predict(graph, features)
        accuracy = float((logits.argmax(axis=1) == labels).mean())
        assert accuracy > 0.4  # chance is ~0.33
