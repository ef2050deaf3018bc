"""Differential test harness: every lane count is provably equivalent.

The full matrix — variant x aggregator x vertex labelling x lane count —
must produce the same answer.  The variants are the paper's as the value
plane runs them: ``basic`` is :class:`BasicKernel`'s pass, ``fusion``
(S2) that pass followed by the layer's sweep over row blocks
(:func:`repro.nn.layers.output_sweep`), ``compression`` (S3) the pass
over the mask-compressed format's round trip, ``combined`` both.  Section 4.4's processing orders enter as
relabels of the graph (:func:`repro.graphs.apply_order`), the way every
value-plane kernel takes them.  Two levels of equivalence are enforced
on seeded random power-law graphs (the degree skew the paper's dynamic
scheduler exists for):

* **bitwise** across lane counts: every lane cuts an output range (rows
  of a pass, whole chunks of a sweep's blocks), so each vertex row is
  computed by the same operator call and the same block GEMM whichever
  lane runs it, and one lane and N lanes must be ``np.array_equal`` —
  not merely close;
* **numeric** against the dense SpMM reference oracle
  (:func:`repro.nn.aggregate`), up to fp32 reduction-order noise.

Every test runs under the ``always_split`` fixture, so the lanes split
however small the pass.  A determinism section re-runs the four-lane
pass and requires bitwise-identical outputs and identical counters.
"""

import numpy as np
import pytest

from repro import lanes
from repro.graphs import (
    apply_order,
    locality_order,
    natural_order,
    power_law_graph,
    randomized_order,
    synthetic_features,
)
from repro.kernels import (
    PREFETCH_LINES_PER_VECTOR, TASK_SIZE, BasicKernel, UpdateParams,
)
from repro.nn import aggregate
from repro.nn.layers import output_sweep
from repro.tensors.compression import compress_matrix, decompress_matrix

AGGREGATORS = ("gcn", "sage-mean")

#: Lane counts of the execution matrix; one lane is the baseline.
LANE_COUNTS = (1, 2, 3)

GRAPH_SEEDS = (3, 19)

#: Sweep block rows: small enough that the smallest graph (243 vertices)
#: has 30 blocks, so three lanes get a chunk each.
BLOCK_ROWS = 8

ORDERS = {
    "natural": natural_order,
    "randomized": randomized_order,
    "locality": locality_order,
}


def _relabel(graph, h, order_name):
    """``graph`` relabelled by one processing order, with its features."""
    order = ORDERS[order_name](graph)
    return apply_order(graph, order), h[order]


def _graph(seed):
    return power_law_graph(150 + 31 * seed, avg_degree=7.0, seed=seed)


def _features(graph, seed):
    return synthetic_features(graph, 24, seed=seed, sparsity=0.4)


def _params(f_in, f_out, seed=0):
    rng = np.random.default_rng(seed)
    return UpdateParams(
        weight=(rng.standard_normal((f_in, f_out)) * 0.2).astype(np.float32),
        bias=(rng.standard_normal(f_out) * 0.1).astype(np.float32),
    )


def _run_kernel(name, graph, h, aggregator, params):
    """Run one variant once through a fresh kernel."""
    if name in ("compression", "combined"):
        h = decompress_matrix(compress_matrix(h))
    out, stats = BasicKernel().aggregate(graph, h, aggregator)
    if name in ("fusion", "combined"):
        out, _ = output_sweep(
            out, params.weight, params.bias, params.activation, tf=False
        )
    return out, stats


def _comparable_counters(stats):
    """Every deterministic work counter (wall time is a measurement)."""
    counters = {
        "gathers": stats.gathers,
        "flops": stats.flops,
        "prefetches": stats.prefetches,
        "tasks": stats.tasks,
        "jit_compilations": stats.jit_compilations,
    }
    counters.update(
        {k: v for k, v in stats.extra.items() if k != "wall_time_s"}
    )
    return counters


@pytest.mark.parametrize("aggregator", AGGREGATORS)
@pytest.mark.parametrize("name", ["basic", "compression", "fusion", "combined"])
def test_differential_matrix(always_split, monkeypatch, name, aggregator):
    """variant x aggregator x labelling x lanes: bitwise-equal everywhere."""
    monkeypatch.setattr("repro.nn.layers.SWEEP_ROWS", BLOCK_ROWS)
    for seed in GRAPH_SEEDS:
        base = _graph(seed)
        assert base.num_vertices >= 3 * lanes.MIN_SLICE * BLOCK_ROWS
        params = _params(24, 12, seed)
        for order_name in ("natural", "randomized"):
            graph, h = _relabel(base, _features(base, seed), order_name)
            reference = aggregate(graph, h, aggregator)  # dense SpMM oracle
            if name in ("fusion", "combined"):
                reference = params.apply(reference)
            always_split(1)
            baseline, baseline_stats = _run_kernel(
                name, graph, h, aggregator, params
            )
            np.testing.assert_allclose(baseline, reference, atol=2e-4)
            for count in LANE_COUNTS[1:]:
                always_split(count)
                out, stats = _run_kernel(name, graph, h, aggregator, params)
                assert np.array_equal(out, baseline), (
                    f"{name}/{aggregator}/{order_name}/x{count} diverged bitwise"
                )
                assert _comparable_counters(stats) == _comparable_counters(
                    baseline_stats
                )


@pytest.mark.parametrize("count", [4], ids=["thread-4"])
@pytest.mark.parametrize("name", ["basic", "fusion"])
def test_concurrent_backends_are_deterministic(
    always_split, monkeypatch, name, count
):
    """Two runs on four lanes: bitwise outputs, identical counters."""
    monkeypatch.setattr("repro.nn.layers.SWEEP_ROWS", BLOCK_ROWS)
    graph = _graph(5)
    h = _features(graph, 5)
    params = _params(h.shape[1], 10, 5)
    always_split(count)
    (out_a, stats_a), (out_b, stats_b) = [
        _run_kernel(name, graph, h, "gcn", params) for _ in range(2)
    ]
    assert np.array_equal(out_a, out_b)
    assert _comparable_counters(stats_a) == _comparable_counters(stats_b)


def test_training_with_parallel_kernel_matches_serial(always_split):
    """A Trainer whose every pass splits into three lanes reproduces the
    one-lane run."""
    from repro.nn import Adam, Trainer, build_model

    graph = _graph(2)
    h = _features(graph, 2)
    labels = np.random.default_rng(0).integers(0, 4, graph.num_vertices)

    losses = []
    for count in (1, 3):
        always_split(count)
        model = build_model("gcn", h.shape[1], 16, 4, seed=0)
        trainer = Trainer(
            model, Adam(model, lr=0.01), aggregation_kernel=BasicKernel()
        )
        history = trainer.fit(graph, h, labels, epochs=3)
        losses.append(history.losses())
    assert losses[0] == losses[1]


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("transposed", [False, True], ids=["forward", "transposed"])
@pytest.mark.parametrize("aggregator", ["gcn", "mean"])
def test_lane_split_pass_matches_one_lane(
    always_split, aggregator, transposed, order_name
):
    """A pass over a graph in any labelling runs as ONE operator call,
    cut into one row slice per lane; its counters are closed forms of
    the relabelled graph.  Rows and counters must not move with the lane
    count."""
    base = _graph(7)
    graph, h = _relabel(base, _features(base, 7), order_name)
    kernel = BasicKernel()
    run = kernel.aggregate_backward if transposed else kernel.aggregate
    degrees = (graph.transpose() if transposed else graph).degrees()
    n = graph.num_vertices
    runs = []
    for count in LANE_COUNTS:
        always_split(count)
        out, stats = run(graph, h, aggregator)
        assert stats.gathers == graph.num_edges + n
        assert stats.tasks == -(-n // TASK_SIZE)
        assert stats.prefetches == PREFETCH_LINES_PER_VECTOR * int(
            (degrees[kernel.prefetch_distance:] + 1).sum()
        ) > 0
        runs.append(out)
    for out in runs[1:]:
        assert np.array_equal(out, runs[0])
