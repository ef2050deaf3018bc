"""Mini-batch (sampled) training — the Section 3 workflow, for real.

The paper's motivation experiment trains a *sampled* GraphSAGE: each
step samples a layered K-hop neighborhood for a seed batch (Eq. 3) and
runs the layers on the induced blocks.  This module executes that
workflow on the value plane so the full-batch/sampled comparison (and
the accuracy caveat the paper cites — "sampling may degrade the network
accuracy") can be reproduced, not just asserted.

Implementation note: a sampled block is a bipartite layer ``src -> dst``;
we compute it by building a small CSR over the sampled edges and running
the mean aggregator with the block's own degrees, matching GraphSAGE's
neighborhood-sample semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..graphs.csr import CSRGraph
from ..gpu.sampler import LayerBlock, MiniBatch, iterate_minibatches, sample_blocks
from ..kernels.segment import ScaledCSR
from ..obs import get_tracer
from . import functional as F
from .aggregate import canonical_aggregator
from .layers import GNNLayer
from .model import GNNModel
from .optim import Optimizer


def block_aggregate(
    edge_dst: np.ndarray,
    edge_src: np.ndarray,
    dst_vertices: np.ndarray,
    h_src: np.ndarray,
    src_index: dict,
) -> np.ndarray:
    """Mean-aggregate a sampled block.

    Args:
        edge_dst/edge_src: sampled edges in global vertex ids.
        dst_vertices: the block's destination set (global ids).
        h_src: features of the block's source frontier, ordered like the
            frontier array.
        src_index: global id -> row in ``h_src``.

    Returns:
        (len(dst_vertices), features) mean-aggregated matrix.
    """
    dst_pos = {int(v): i for i, v in enumerate(dst_vertices)}
    out = np.zeros((len(dst_vertices), h_src.shape[1]), dtype=np.float64)
    counts = np.zeros(len(dst_vertices), dtype=np.float64)
    for d, s in zip(edge_dst, edge_src):
        row = dst_pos[int(d)]
        out[row] += h_src[src_index[int(s)]]
        counts[row] += 1.0
    counts = np.maximum(counts, 1.0)
    return (out / counts[:, None]).astype(np.float32)


def full_neighbor_blocks(
    graph: CSRGraph, seeds: np.ndarray, num_layers: int
) -> MiniBatch:
    """Exact (unsampled) K-hop blocks for a seed set — the serving path.

    Like :func:`~repro.gpu.sampler.sample_blocks` but with *every*
    in-neighbor of each frontier vertex (plus the self edge), built
    vectorized from the CSR arrays: no per-vertex Python loop, so a
    serving batch assembles in O(edges touched) numpy work.  Frontiers
    are deduplicated and sorted (``np.unique``), matching the sampler's
    invariants, so downstream ``searchsorted`` row lookups are valid.

    Edge cases the online service hits are first-class here: an empty
    seed set yields empty blocks, repeated seeds deduplicate into one
    destination row, and isolated vertices carry just their self edge.
    """
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    blocks_reversed: List[LayerBlock] = []
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    indptr = graph.indptr.astype(np.int64, copy=False)
    indices = graph.indices.astype(np.int64, copy=False)
    for _ in range(num_layers):
        starts = indptr[frontier]
        degs = indptr[frontier + 1] - starts
        total = int(degs.sum())
        if total:
            # Flat gather positions for every (frontier vertex, neighbor)
            # pair: arange over the concatenated rows, rebased per row.
            cum = np.cumsum(degs)
            base = np.repeat(starts - (cum - degs), degs)
            edge_src = indices[np.arange(total, dtype=np.int64) + base]
            edge_dst = np.repeat(frontier, degs)
        else:
            edge_src = np.empty(0, dtype=np.int64)
            edge_dst = np.empty(0, dtype=np.int64)
        edge_dst = np.concatenate([edge_dst, frontier])  # self edges
        edge_src = np.concatenate([edge_src, frontier])
        src_unique = np.unique(edge_src)
        blocks_reversed.append(
            LayerBlock(
                dst_vertices=frontier,
                src_vertices=src_unique,
                edge_dst=edge_dst,
                edge_src=edge_src,
            )
        )
        frontier = src_unique
    return MiniBatch(
        seed_vertices=np.asarray(seeds, dtype=np.int64),
        blocks=tuple(reversed(blocks_reversed)),
    )


def assemble_batch(
    graph: CSRGraph,
    vertices: np.ndarray,
    num_layers: int,
    fanouts: Optional[Sequence[int]] = None,
    rng: Optional[np.random.Generator] = None,
) -> MiniBatch:
    """Neighborhood assembly for a query batch: exact or sampled.

    ``fanouts=None`` (the default, and the serving default) builds exact
    full neighborhoods; a fanout list routes through the Eq. 3 sampler
    (one fanout per layer, input-layer first).  ``num_layers`` counts
    the hops to gather: a caller that kept the first layer's aggregation
    asks for one fewer than the model has, and for none at all — an
    empty batch of blocks — when the model has a single layer.
    """
    if num_layers == 0:
        return MiniBatch(
            seed_vertices=np.asarray(vertices, dtype=np.int64), blocks=()
        )
    if fanouts is None:
        return full_neighbor_blocks(graph, vertices, num_layers)
    if len(fanouts) != num_layers:
        raise ValueError("need one fanout per layer")
    if rng is None:
        rng = np.random.default_rng(0)
    return sample_blocks(
        graph, np.asarray(vertices, dtype=np.int64), fanouts, rng
    )


def _block_weights(
    d_hat: np.ndarray, block: LayerBlock, aggregator: str, dst_rows: np.ndarray
) -> np.ndarray:
    """Per-edge ψ for one block (self edges ride in the edge arrays).

    * ``gcn`` — global-degree symmetric normalization
      ``1/sqrt(D̂_dst · D̂_src)``; on full neighborhoods this makes the
      block forward *equal* to the full-batch oracle (the self edge's
      ``1/sqrt(D̂_v²)`` collapses to the oracle's ``1/D̂_v`` self factor).
    * ``mean`` — block-local mean over the edges present (GraphSAGE
      neighborhood-sample semantics); on full neighborhoods the count is
      ``D+1 = D̂``, again exactly the oracle.
    """
    if aggregator == "gcn":
        weights = 1.0 / np.sqrt(d_hat[block.edge_dst] * d_hat[block.edge_src])
    elif aggregator == "mean":
        counts = np.bincount(dst_rows, minlength=len(block.dst_vertices))
        weights = 1.0 / np.maximum(counts, 1)[dst_rows]
    else:
        raise ValueError(
            f"block forward supports 'gcn' and 'mean' aggregation, got {aggregator!r}"
        )
    return weights.astype(np.float32)


def _block_aggregate_vectorized(
    block: LayerBlock, h_src: np.ndarray, weights: np.ndarray, dst_rows: np.ndarray
) -> np.ndarray:
    """ψ-weighted segment-sum of a block: one fused pass, no Python loop.

    The block's edge list becomes a ``dst × src`` operator of the shared
    aggregation core.  A sampled block may hold the same edge twice; the
    operator sums the two weights, which is what reducing each edge on
    its own would give.  Destinations with no edges (impossible when
    self edges are present, but kept safe) stay zero.
    """
    src_rows = np.searchsorted(block.src_vertices, block.edge_src)
    shape = (len(block.dst_vertices), len(block.src_vertices))
    return ScaledCSR.from_coo(dst_rows, src_rows, weights, shape)(h_src)


@dataclass
class BlockForwardResult:
    """Inference output of one assembled batch.

    Rows align with ``query_vertices`` (the deduplicated, sorted seed
    set); callers with repeated/unsorted queries map back with
    ``np.searchsorted(query_vertices, requested)``.
    """

    query_vertices: np.ndarray
    logits: np.ndarray  # (len(query_vertices), num_classes)
    embeddings: np.ndarray  # input representation of the final layer


def _update(layer: GNNLayer, a: np.ndarray) -> np.ndarray:
    pre = a @ layer.weight + layer.bias
    return (F.relu(pre) if layer.activation else pre).astype(np.float32)


def block_forward(
    graph: CSRGraph,
    model: GNNModel,
    batch: MiniBatch,
    features: np.ndarray,
    first_aggregation: Optional[np.ndarray] = None,
) -> BlockForwardResult:
    """Vectorized inference forward over assembled blocks — serving's
    hot path.

    Computes only the rows the query needs (frontier-restricted), with
    no dropout and no caches.  Each layer runs under a ``kernel.serve.
    block`` span so a traced request shows its compute the same way a
    traced epoch does.  On :func:`full_neighbor_blocks` output this
    matches ``model.predict`` row-for-row (up to fp32 reduction-order
    noise) for both supported aggregators.

    ``first_aggregation`` has the meaning it has in
    :meth:`GNNModel.forward`: the caller kept ``Â · features`` (all
    ``V`` rows, exact) from an earlier pass over the same graph and
    features, so the first layer gathers nothing — ``batch`` then holds
    one block per *remaining* layer and the loop starts from
    ``act(first_aggregation[src] @ W₀ + b₀)`` on the first remaining
    block's source rows instead of from ``features[src]``.
    """
    start = 0 if first_aggregation is None else 1
    if len(batch.blocks) != model.num_layers - start:
        raise ValueError(
            f"batch has {len(batch.blocks)} blocks for a "
            f"{model.num_layers}-layer model"
            + (" whose first aggregation was kept" if start else "")
        )
    tracer = get_tracer()
    d_hat = graph.self_loop_degrees()
    if batch.blocks:
        query = batch.blocks[-1].dst_vertices
        src = batch.blocks[0].src_vertices
    else:
        # A one-layer model whose aggregation was kept: no hop to walk,
        # and the final layer's input is the features themselves.
        query = src = np.unique(batch.seed_vertices)
        embeddings = features[query].astype(np.float32, copy=False)
    if start:
        first = model.layers[0]
        with tracer.span(
            "kernel.serve.block", index=0, aggregator=first.aggregator
        ) as span:
            h = _update(first, first_aggregation[src])
            span.add_counters(
                {
                    "edges": 0.0,
                    "dst_vertices": float(len(src)),
                    "src_vertices": float(len(src)),
                    "gathers": 0.0,
                }
            )
    else:
        h = features[src].astype(np.float32, copy=False)
    for idx, (layer, block) in enumerate(
        zip(model.layers[start:], batch.blocks), start=start
    ):
        if idx == model.num_layers - 1:
            # The final layer's input, restricted to the query rows, is
            # the served "embedding" representation.
            rows = np.searchsorted(block.src_vertices, query)
            embeddings = h[rows]
        with tracer.span(
            "kernel.serve.block",
            index=idx,
            aggregator=layer.aggregator,
        ) as span:
            aggregator = canonical_aggregator(layer.aggregator)
            dst_rows = np.searchsorted(block.dst_vertices, block.edge_dst)
            weights = _block_weights(d_hat, block, aggregator, dst_rows)
            h = _update(
                layer, _block_aggregate_vectorized(block, h, weights, dst_rows)
            )
            span.add_counters(
                {
                    "edges": float(block.num_edges),
                    "dst_vertices": float(len(block.dst_vertices)),
                    "src_vertices": float(len(block.src_vertices)),
                    "gathers": float(block.num_edges),
                }
            )
    return BlockForwardResult(
        query_vertices=query, logits=h, embeddings=embeddings
    )


@dataclass
class MiniBatchStep:
    """Record of one sampled training step."""

    batch_size: int
    sampled_edges: int
    loss: float


class MiniBatchTrainer:
    """Sampled GraphSAGE-style training over layered mini-batches.

    Weights are shared with a :class:`repro.nn.model.GNNModel`; only the
    aggregation is replaced by the sampled-block version, so the same
    parameters can be evaluated full-batch afterwards.
    """

    def __init__(self, model: GNNModel, optimizer: Optimizer) -> None:
        for layer in model.layers:
            if layer.aggregator != "mean":
                raise ValueError(
                    "sampled training reproduces GraphSAGE; build the model "
                    "with aggregator 'mean' (model_type='sage')"
                )
        self.model = model
        self.optimizer = optimizer
        self.steps: List[MiniBatchStep] = []

    # ------------------------------------------------------------------
    def forward_batch(self, batch: MiniBatch, features: np.ndarray):
        """Forward through the sampled blocks; returns seed logits and
        the per-layer caches needed for the (dense-block) backward."""
        frontier = batch.blocks[0].src_vertices
        h = features[frontier]
        src_ids = frontier
        caches = []
        for layer, block in zip(self.model.layers, batch.blocks):
            src_index = {int(v): i for i, v in enumerate(src_ids)}
            a = block_aggregate(
                block.edge_dst, block.edge_src, block.dst_vertices, h, src_index
            )
            pre = a @ layer.weight + layer.bias
            out = F.relu(pre) if layer.activation else pre
            caches.append((a, pre, src_ids, block))
            h = out.astype(np.float32)
            src_ids = block.dst_vertices
        return h, caches

    def train_step(
        self,
        batch: MiniBatch,
        features: np.ndarray,
        labels: np.ndarray,
    ) -> MiniBatchStep:
        """One sampled step: forward, loss on seeds, parameter update.

        Backward propagates through the update weights only (first-order
        sampled-gradient approximation); aggregations are linear in the
        parameters below them, and this keeps the step cost proportional
        to the sampled blocks, the property mini-batching exists for.
        """
        logits, caches = self.forward_batch(batch, features)
        seed_labels = labels[batch.blocks[-1].dst_vertices]
        loss, grad = F.cross_entropy(logits, seed_labels)
        grads = []
        for (a, pre, _, _), layer in zip(reversed(caches), reversed(self.model.layers)):
            grad_pre = F.relu_grad(pre, grad) if layer.activation else grad
            grad_w = a.T @ grad_pre
            grad_b = grad_pre.sum(axis=0)
            from .layers import LayerGrads

            grads.append(
                LayerGrads(
                    weight=grad_w.astype(np.float32),
                    bias=grad_b.astype(np.float32),
                    h_in=np.zeros((1, layer.in_features), dtype=np.float32),
                )
            )
            # Propagate to the layer below through the update weights and
            # the block aggregation (mean over sampled neighbors).
            if layer is not self.model.layers[0]:
                grad_a = grad_pre @ layer.weight.T
                # Scatter grad_a back to the previous layer's outputs via
                # the block's mean edges.
                block = caches[self.model.layers.index(layer)][3]
                src_ids = caches[self.model.layers.index(layer)][2]
                src_index = {int(v): i for i, v in enumerate(src_ids)}
                dst_pos = {int(v): i for i, v in enumerate(block.dst_vertices)}
                counts = np.zeros(len(block.dst_vertices))
                for d in block.edge_dst:
                    counts[dst_pos[int(d)]] += 1
                counts = np.maximum(counts, 1.0)
                scattered = np.zeros((len(src_ids), layer.in_features), dtype=np.float64)
                for d, s in zip(block.edge_dst, block.edge_src):
                    scattered[src_index[int(s)]] += (
                        grad_a[dst_pos[int(d)]] / counts[dst_pos[int(d)]]
                    )
                grad = scattered.astype(np.float32)
        self.optimizer.step(list(reversed(grads)))
        step = MiniBatchStep(
            batch_size=len(batch.seed_vertices),
            sampled_edges=batch.total_sampled_edges,
            loss=loss,
        )
        self.steps.append(step)
        return step

    def fit_epoch(
        self,
        graph: CSRGraph,
        features: np.ndarray,
        labels: np.ndarray,
        batch_size: int,
        fanouts: Sequence[int],
        seed: int = 0,
    ) -> float:
        """One epoch of sampled training; returns the mean step loss."""
        if len(fanouts) != self.model.num_layers:
            raise ValueError("need one fanout per layer")
        losses = []
        for batch in iterate_minibatches(graph, batch_size, fanouts, seed=seed):
            step = self.train_step(batch, features, labels)
            losses.append(step.loss)
        return float(np.mean(losses))
