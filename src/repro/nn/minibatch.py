"""Block assembly and the block forward — serving refills.

A query batch is answered from the layered K-hop blocks around its seed
vertices (Eq. 3's block structure): :func:`assemble_batch` builds them
exact (:func:`full_neighbor_blocks`), and :func:`block_forward` runs the
model's layers over them.  Each block is a bipartite
``dst × src`` operator of the shared aggregation core; everything else
a layer does is :mod:`repro.nn.layers`' phase functions, in the order
:func:`~repro.nn.layers.transform_first` decides for the full-graph
forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..graphs.csr import CSRGraph
from ..gpu.sampler import LayerBlock, MiniBatch
from ..kernels.segment import ScaledCSR
from ..obs import get_tracer
from .aggregate import canonical_aggregator
from .layers import layer_operand, layer_output, transform_first
from .model import GNNModel


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
    graph: CSRGraph, vertices: np.ndarray, num_layers: int
) -> MiniBatch:
    """Exact neighborhood assembly for a query batch.

    ``num_layers`` counts the hops to gather: a caller that kept the
    first layer's aggregation asks for one fewer than the model has, and
    for none at all — an empty batch of blocks — when the model has a
    single layer.
    """
    if num_layers == 0:
        return MiniBatch(
            seed_vertices=np.asarray(vertices, dtype=np.int64), blocks=()
        )
    return full_neighbor_blocks(graph, vertices, num_layers)


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
    traced epoch does.  Every layer runs in the order
    :func:`~repro.nn.layers.transform_first` gives the full-graph
    forward (a narrowing layer gathers ``out``-wide ``h W`` rows), so on
    :func:`full_neighbor_blocks` output this matches ``model.predict``
    row-for-row up to the summation order of the block operator, for
    both supported aggregators.

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
            h = layer_output(
                first_aggregation[src], first.weight, first.bias,
                first.activation, tf=False,
            )
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
            tf = transform_first(
                layer.in_features, layer.out_features, static_input=idx == 0
            )
            agg = _block_aggregate_vectorized(
                block, layer_operand(h, layer.weight, tf), weights, dst_rows
            )
            h = layer_output(agg, layer.weight, layer.bias, layer.activation, tf)
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
