"""Cross-module integration: every execution path computes the same layer.

The strongest correctness statement in the reproduction: the nn layer
on the scipy oracle, the value plane's kernel with a separate update
and with the layer's blocked sweep (S2), both over the S3 format's
round trip, and the DMA engine offload all compute the same
``h_out = ReLU(W Â h + b)`` for the same inputs.
"""

import numpy as np
import pytest

from repro.dma import DmaOffloadRunner
from repro.graphs import load_dataset, synthetic_features
from repro.kernels import BasicKernel, UpdateParams
from repro.nn import GNNLayer


@pytest.fixture(scope="module")
def setup():
    graph = load_dataset("wikipedia", scale=0.04, seed=9)
    h = synthetic_features(graph, 24, seed=9, sparsity=0.5)
    layer = GNNLayer(24, 12, aggregator="gcn", activation=True, seed=9)
    reference, _ = layer.forward(graph, h)
    params = UpdateParams(weight=layer.weight, bias=layer.bias, activation=True)
    return graph, h, params, reference


def test_unfused_kernels_plus_update(setup, s3_round_trip):
    graph, h, params, reference = setup
    for name, x in (("basic", h), ("compression", s3_round_trip(h))):
        a, _ = BasicKernel().aggregate(graph, x, "gcn")
        np.testing.assert_allclose(
            params.apply(a), reference, atol=3e-4, err_msg=f"{name} diverged"
        )


def test_fused_kernels(setup, s2_layer, s3_round_trip):
    graph, h, params, reference = setup
    for name, x in (("fusion", h), ("combined", s3_round_trip(h))):
        h_out, _, _ = s2_layer(graph, x, params, "gcn")
        np.testing.assert_allclose(
            h_out, reference, atol=3e-4, err_msg=f"{name} diverged"
        )


def test_dma_offload(setup):
    graph, h, params, reference = setup
    runner = DmaOffloadRunner(cache_scale=0.02)
    h_out, _, _ = runner.run_layer(graph, h, params=params)
    np.testing.assert_allclose(h_out, reference, atol=3e-4)


def test_mean_aggregator_end_to_end(setup):
    graph, h, params, _ = setup
    layer = GNNLayer(24, 12, aggregator="mean", seed=9)
    layer.weight = params.weight
    layer.bias = params.bias
    reference, _ = layer.forward(graph, h)
    # Aggregate-first, so the update is the blocked sweep over Â h (S2).
    h_out, _ = layer.forward(graph, h, kernel=BasicKernel(), static_input=True)
    np.testing.assert_allclose(h_out, reference, atol=3e-4)
    dma_out, _, _ = DmaOffloadRunner(cache_scale=0.02).run_layer(
        graph, h, params=params, aggregator="mean"
    )
    np.testing.assert_allclose(dma_out, reference, atol=3e-4)
