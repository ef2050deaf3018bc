"""Lanes: a call cut into one contiguous slice per core computes every
element exactly as the serial call does.

Each test sets the lane count itself, so the split runs on a one-core
machine too, and compares 2 and 3 lanes with 1 by ``np.array_equal``.
A split that cut a reduction axis at lane boundaries (summing partial
products of each lane's rows) would round differently and fail here;
the dense sweeps sum row-block partials in an order fixed by the row
count and the block size alone, and pass.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro import lanes
from repro.graphs import load_dataset, power_law_graph, synthetic_features
from repro.kernels import BasicKernel
from repro.nn import Adam, Trainer, build_model
from repro.nn import layers as layers_module
from repro.nn.layers import (
    SWEEP_ROWS,
    grad_pre_activation,
    grads_after_aggregation,
    grads_before_aggregation,
    grads_sweep,
    layer_operand,
    layer_output,
    output_sweep,
)

ROWS = 1001  # odd: the lanes' slices differ in length
LANE_COUNTS = (2, 3)


def _array(rows, cols, dtype, seed):
    return np.random.default_rng(seed).standard_normal((rows, cols)).astype(dtype)


def _run(lane_count, lanes_, call):
    """``call()`` at ``lanes_`` lanes, on fresh copies of its inputs."""
    lane_count(lanes_)
    result = call()
    return [np.array(r) if r is not None else None for r in result]


def _assert_lanes_match(lane_count, call):
    serial = _run(lane_count, 1, call)
    for count in LANE_COUNTS:
        split = _run(lane_count, count, call)
        for s, p in zip(serial, split):
            if s is None:
                assert p is None
            else:
                assert p.dtype == s.dtype
                np.testing.assert_array_equal(p, s)


DTYPES = [np.float32, np.float64]
#: (in, out): 40 -> 24 narrows (transform-first), 24 -> 40 widens.
SHAPES = [(40, 24), (24, 40)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("lent", [False, True])
class TestPhaseFunctions:
    def test_layer_operand(self, always_split, dtype, shape, lent):
        h, w = _array(ROWS, shape[0], dtype, 0), _array(*shape, dtype, 1)

        def call():
            out = np.empty((ROWS, shape[1]), dtype) if lent else None
            return [layer_operand(h, w, True, out=out)]

        _assert_lanes_match(always_split, call)

    @pytest.mark.parametrize("tf", [False, True])
    @pytest.mark.parametrize("activation", [False, True])
    def test_layer_output(self, always_split, dtype, shape, lent, tf, activation):
        fin, fout = shape
        agg = _array(ROWS, fout if tf else fin, dtype, 2)
        w, b = _array(fin, fout, dtype, 3), _array(1, fout, dtype, 4)[0]

        def call():
            out = np.empty((ROWS, fout), dtype) if lent and not tf else None
            return [layer_output(agg.copy(), w, b, activation, tf, out=out)]

        _assert_lanes_match(always_split, call)

    @pytest.mark.parametrize("in_place", [False, True])
    def test_grad_pre_activation(self, always_split, dtype, shape, lent, in_place):
        fout = shape[1]
        grad, h_out = _array(ROWS, fout, dtype, 5), _array(ROWS, fout, dtype, 6)

        def call():
            grad_b = np.empty(fout, dtype) if lent else None
            return grad_pre_activation(grad.copy(), h_out, True, in_place, grad_b)

        _assert_lanes_match(always_split, call)

    @pytest.mark.parametrize("need_input_grad", [False, True])
    def test_grads_before_aggregation(
        self, always_split, dtype, shape, lent, need_input_grad
    ):
        fin, fout = shape
        grad_pre, a = _array(ROWS, fout, dtype, 7), _array(ROWS, fin, dtype, 8)
        w = _array(fin, fout, dtype, 9)

        def call():
            grad_w = np.empty((fin, fout), dtype) if lent else None
            out = np.empty((ROWS, fin), dtype) if lent else None
            return grads_before_aggregation(
                grad_pre, a, w, need_input_grad, grad_w=grad_w, out=out
            )

        _assert_lanes_match(always_split, call)

    def test_grads_after_aggregation(self, always_split, dtype, shape, lent):
        fin, fout = shape
        g, h_in = _array(ROWS, fout, dtype, 10), _array(ROWS, fin, dtype, 11)
        w = _array(fin, fout, dtype, 12)

        def call():
            grad_w = np.empty((fin, fout), dtype) if lent else None
            out = np.empty((ROWS, fin), dtype) if lent else None
            return grads_after_aggregation(g, h_in, w, True, grad_w=grad_w, out=out)

        _assert_lanes_match(always_split, call)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("aggregator", ["gcn", "mean"])
@pytest.mark.parametrize("direction", ["aggregate", "aggregate_backward"])
def test_basic_kernel(always_split, small_products, dtype, aggregator, direction):
    h = _array(small_products.num_vertices, 16, dtype, 13)
    kernel = BasicKernel()

    def call():
        return [getattr(kernel, direction)(small_products, h, aggregator)[0]]

    _assert_lanes_match(always_split, call)


def test_trainer_epochs_above_the_size_constant(lane_count):
    """Three epochs at the real threshold: the 100 -> 256 layer's arrays
    are past it, so its phases and both aggregations split."""
    graph = load_dataset("products", scale=1.0, seed=2)
    v = graph.num_vertices
    assert v * 256 * 4 >= lanes.MIN_SPLIT_BYTES
    features = synthetic_features(graph, 100, seed=2)
    labels = np.random.default_rng(2).integers(0, 16, v)
    mask = np.random.default_rng(3).random(v) < 0.6

    def call():
        model = build_model("gcn", 100, 256, 16, seed=0)
        trainer = Trainer(
            model, Adam(model, lr=0.01), aggregation_kernel=BasicKernel()
        )
        losses = [
            trainer.train_epoch(graph, features, labels, mask, ~mask).loss
            for _ in range(3)
        ]
        return [np.array(losses)] + [
            array for _, _, array in model.parameters()
        ]

    _assert_lanes_match(lane_count, call)


#: A few blocks, not a multiple of the block size: four row blocks, the
#: last one short.
SWEEP_V = 3 * SWEEP_ROWS + 37


@pytest.mark.parametrize("dtype", DTYPES)
class TestSweeps:
    """The dense sweeps deal whole row blocks to the lanes and fold the
    parameter-gradient partials in an order fixed by ``V`` and the block
    size, so 1, 2 and 3 lanes agree bit for bit."""

    @pytest.mark.parametrize("keep", [True, False])
    def test_output_sweep(self, always_split, dtype, keep):
        agg = _array(SWEEP_V, 24, dtype, 20)
        w, b = _array(24, 40, dtype, 21), _array(1, 40, dtype, 22)[0]
        w_next = _array(40, 6, dtype, 23)

        def call():
            h, t = output_sweep(agg, w, b, True, False, next_weight=w_next, keep=keep)
            return [h, t]

        _assert_lanes_match(always_split, call)

    @pytest.mark.parametrize("lower_tf", [False, True])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_grads_sweep_both_stages(self, always_split, dtype, lower_tf, in_place):
        g = _array(SWEEP_V, 6, dtype, 24)
        h = np.maximum(_array(SWEEP_V, 40, dtype, 25), 0)
        w_up = _array(40, 6, dtype, 26)
        a = None if lower_tf else _array(SWEEP_V, 48, dtype, 27)
        w_low = _array(48, 40, dtype, 28)

        def call():
            swept = grads_sweep(
                g.copy(), upper=(h, w_up), lower=(h, True, a, w_low, True),
                in_place=in_place,
            )
            low = swept.lower
            assert swept.grad_h is None  # never formed
            return [swept.upper_weight, low.weight, low.bias, low.operand]

        _assert_lanes_match(always_split, call)

    def test_grads_sweep_one_stage(self, always_split, dtype):
        g = _array(SWEEP_V, 6, dtype, 29)
        h_in, w = _array(SWEEP_V, 40, dtype, 30), _array(40, 6, dtype, 31)
        h_out, a = _array(SWEEP_V, 6, dtype, 32), _array(SWEEP_V, 40, dtype, 33)

        def call():
            upper = grads_sweep(g, upper=(h_in, w), need_grad_h=True)
            lower = grads_sweep(g, lower=(h_out, True, a, w, False)).lower
            return [upper.upper_weight, upper.grad_h, lower.weight, lower.bias]

        _assert_lanes_match(always_split, call)

    def test_model_epoch_and_predict(self, always_split, dtype):
        """Two whole ``Trainer`` epochs (sweeps, the dead-row backward
        aggregation, the loss) and ``predict`` on the student."""
        graph = power_law_graph(SWEEP_V, 6.0, seed=4, name="sweep")
        features = synthetic_features(graph, 100, seed=4).astype(dtype)
        labels = np.random.default_rng(4).integers(0, 16, SWEEP_V)
        mask = np.random.default_rng(5).random(SWEEP_V) < 0.5

        def call():
            model = build_model("gcn", 100, 256, 16, seed=0)
            for layer in model.layers:
                layer.weight = layer.weight.astype(dtype)
                layer.bias = layer.bias.astype(dtype)
            kernel = BasicKernel()
            trainer = Trainer(model, Adam(model, lr=0.01), aggregation_kernel=kernel)
            losses = [
                trainer.train_epoch(graph, features, labels, mask, ~mask).loss
                for _ in range(2)
            ]
            return [np.array(losses), model.predict(graph, features, kernel)] + [
                array for _, _, array in model.parameters()
            ]

        _assert_lanes_match(always_split, call)


def test_sweep_really_splits(lane_count, monkeypatch):
    """Lanes take whole blocks: an 8-block sweep (the 1x twin's 4,096
    rows) runs on two lanes although it has fewer than
    ``2 * MIN_SLICE`` blocks, and every block runs exactly once."""
    lane_count(2)
    seen = []
    phase = layers_module.layer_output

    def spy(agg, *args, **kwargs):
        seen.append((threading.current_thread().name, len(agg)))
        return phase(agg, *args, **kwargs)

    monkeypatch.setattr(layers_module, "layer_output", spy)
    rows = 8 * SWEEP_ROWS
    assert 8 < 2 * lanes.MIN_SLICE
    agg = _array(rows, 100, np.float32, 34)
    w, b = _array(100, 256, np.float32, 35), np.zeros(256, np.float32)
    output_sweep(agg, w, b, True, False, next_weight=_array(256, 16, np.float32, 36))
    assert [n for _, n in seen] == [SWEEP_ROWS] * 8
    assert {name for name, _ in seen} == {"MainThread", "lane-1"}


def test_sweep_blocks_are_a_fixed_grid():
    bounds = layers_module.sweep_bounds
    assert bounds(0) == [0, 0]
    assert bounds(SWEEP_ROWS) == [0, SWEEP_ROWS]
    assert bounds(SWEEP_V) == [0, SWEEP_ROWS, 2 * SWEEP_ROWS, 3 * SWEEP_ROWS, SWEEP_V]
    # A tail under MIN_SLICE rows joins the block before it.
    short = 2 * SWEEP_ROWS + lanes.MIN_SLICE - 1
    assert bounds(short) == [0, SWEEP_ROWS, short]


def test_split_really_splits(always_split):
    always_split(3)
    seen = []
    lanes.split(ROWS, 0, lambda lo, hi: seen.append((lo, hi)))
    assert sorted(seen) == [(0, 333), (333, 667), (667, ROWS)]
    seen.clear()
    lanes.split(2 * lanes.MIN_SLICE - 1, 0, lambda lo, hi: seen.append((lo, hi)))
    assert seen == [(0, 2 * lanes.MIN_SLICE - 1)]  # no slice under MIN_SLICE


@pytest.mark.parametrize("failing_lane", [0, 2])
def test_lane_exception_reaches_the_caller(always_split, failing_lane):
    always_split(3)
    before = set(threading.enumerate())

    def fn(lo, hi):
        if lo == [0, 333, 667][failing_lane]:
            raise ValueError(f"lane {failing_lane}")

    with pytest.raises(ValueError, match=f"lane {failing_lane}"):
        lanes.split(ROWS, 0, fn)
    assert set(threading.enumerate()) == before


def test_lane_count_is_the_cpu_affinity():
    assert lanes.lane_count() == len(os.sched_getaffinity(0))
    with pytest.raises(ValueError):
        lanes.set_lane_count(0)


def test_no_lane_outlives_a_failed_start(always_split, monkeypatch):
    """A lane that cannot start fails the call only after every lane
    already started is joined: none is left writing into the output."""
    always_split(3)
    start = threading.Thread.start
    calls = []

    def start_once(thread):
        calls.append(thread.name)
        if len(calls) == 2:
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_once)
    written = []

    def fn(lo, hi):
        time.sleep(0.05)
        written.append(lo)

    with pytest.raises(RuntimeError, match="can't start new thread"):
        lanes.split(ROWS, 0, fn)
    assert calls == ["lane-1", "lane-2"]
    assert not [t for t in threading.enumerate() if t.name.startswith("lane-")]
    assert written == [333]  # lane 1 finished before the error surfaced
