"""Property-based cross-validation on random graphs.

Hypothesis generates arbitrary small graphs; every execution path must
agree with the reference aggregation on all of them — including the DMA
engine, whose descriptor machinery exercises very different code.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dma import DmaOffloadRunner
from repro.graphs import CSRGraph
from repro.kernels import BasicKernel, UpdateParams
from repro.nn import aggregate
from repro.nn.layers import output_sweep
from repro.tensors.compression import compress_matrix, decompress_matrix


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    num_edges = draw(st.integers(min_value=0, max_value=4 * n))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(num_edges)
    ]
    return CSRGraph.from_edges(n, edges, name="hypo")


def _features(graph, seed, cols=6, sparsity=0.4):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((graph.num_vertices, cols)).astype(np.float32)
    h[rng.random(h.shape) < sparsity] = 0.0
    return h


@settings(max_examples=25, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 100),
       aggregator=st.sampled_from(["gcn", "mean"]))
def test_software_kernels_match_on_random_graphs(graph, seed, aggregator):
    h = _features(graph, seed)
    reference = aggregate(graph, h, aggregator)
    # The plain pass and the pass over the S3 format's round trip.
    for x in (h, decompress_matrix(compress_matrix(h))):
        out, _ = BasicKernel().aggregate(graph, x, aggregator)
        np.testing.assert_allclose(out, reference, atol=1e-4)


@settings(max_examples=12, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 100))
def test_fused_kernel_matches_on_random_graphs(graph, seed):
    h = _features(graph, seed)
    rng = np.random.default_rng(seed)
    params = UpdateParams(
        weight=(rng.standard_normal((6, 4)) * 0.3).astype(np.float32),
        bias=rng.standard_normal(4).astype(np.float32) * 0.1,
    )
    reference = params.apply(aggregate(graph, h, "gcn"))
    block = int(rng.integers(1, graph.num_vertices + 1))
    a, _ = BasicKernel().aggregate(graph, h, "gcn")
    # S2's update sweep at a random block size.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.nn.layers.SWEEP_ROWS", block)
        h_out, _ = output_sweep(a, params.weight, params.bias, True, tf=False)
    np.testing.assert_allclose(h_out, reference, atol=1e-4)


@settings(max_examples=8, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 50))
def test_dma_engine_matches_on_random_graphs(graph, seed):
    h = _features(graph, seed)
    reference = aggregate(graph, h, "gcn")
    runner = DmaOffloadRunner(cache_scale=0.05)
    a, _, _ = runner.run_layer(graph, h, aggregator="gcn")
    np.testing.assert_allclose(a, reference, atol=1e-4)
