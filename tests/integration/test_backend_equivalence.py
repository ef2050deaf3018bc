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
from repro.graphs import power_law_graph, synthetic_features
from repro.kernels import PREFETCH_LINES_PER_VECTOR, TASK_SIZE, BasicKernel
from repro.nn import aggregate

AGGREGATORS = ("gcn", "sage-mean")

#: Lane counts of the execution matrix; one lane is the baseline.
LANE_COUNTS = (1, 2, 3)

GRAPH_SEEDS = (3, 19)

#: Sweep block rows: small enough that the smallest graph (243 vertices)
#: has 30 blocks, so three lanes get a chunk each.
BLOCK_ROWS = 8

def _graph(seed):
    return power_law_graph(150 + 31 * seed, avg_degree=7.0, seed=seed)


def _features(graph, seed):
    return synthetic_features(graph, 24, seed=seed, sparsity=0.4)


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
def test_differential_matrix(
    always_split, monkeypatch, relabel, run_variant, update_params, name,
    aggregator,
):
    """variant x aggregator x labelling x lanes: bitwise-equal everywhere."""
    monkeypatch.setattr("repro.nn.layers.SWEEP_ROWS", BLOCK_ROWS)
    for seed in GRAPH_SEEDS:
        base = _graph(seed)
        assert base.num_vertices >= 3 * lanes.MIN_SLICE * BLOCK_ROWS
        params = update_params(24, 12, seed)
        for order_name in ("natural", "randomized"):
            graph, h = relabel(base, _features(base, seed), order_name)
            reference = aggregate(graph, h, aggregator)  # dense SpMM oracle
            if name in ("fusion", "combined"):
                reference = params.apply(reference)
            always_split(1)
            baseline, _, baseline_stats = run_variant(
                name, graph, h, aggregator, params
            )
            np.testing.assert_allclose(baseline, reference, atol=2e-4)
            for count in LANE_COUNTS[1:]:
                always_split(count)
                out, _, stats = run_variant(name, graph, h, aggregator, params)
                assert np.array_equal(out, baseline), (
                    f"{name}/{aggregator}/{order_name}/x{count} diverged bitwise"
                )
                assert _comparable_counters(stats) == _comparable_counters(
                    baseline_stats
                )


@pytest.mark.parametrize("count", [4], ids=["thread-4"])
@pytest.mark.parametrize("name", ["basic", "fusion"])
def test_concurrent_backends_are_deterministic(
    always_split, monkeypatch, run_variant, update_params, name, count
):
    """Two runs on four lanes: bitwise outputs, identical counters."""
    monkeypatch.setattr("repro.nn.layers.SWEEP_ROWS", BLOCK_ROWS)
    graph = _graph(5)
    h = _features(graph, 5)
    params = update_params(h.shape[1], 10, 5)
    always_split(count)
    (out_a, _, stats_a), (out_b, _, stats_b) = [
        run_variant(name, graph, h, "gcn", params) for _ in range(2)
    ]
    assert np.array_equal(out_a, out_b)
    assert _comparable_counters(stats_a) == _comparable_counters(stats_b)


@pytest.mark.parametrize("order_name", ["locality", "natural", "randomized"])
@pytest.mark.parametrize("transposed", [False, True], ids=["forward", "transposed"])
@pytest.mark.parametrize("aggregator", ["gcn", "mean"])
def test_lane_split_pass_matches_one_lane(
    always_split, relabel, aggregator, transposed, order_name
):
    """A pass over a graph in any labelling runs as ONE operator call,
    cut into one row slice per lane; its counters are closed forms of
    the relabelled graph.  Rows and counters must not move with the lane
    count."""
    base = _graph(7)
    graph, h = relabel(base, _features(base, 7), order_name)
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
