"""Lanes: a call cut into one contiguous slice per core computes every
element exactly as the serial call does.

Each test sets the lane count itself, so the split runs on a one-core
machine too, and compares 2 and 3 lanes with 1 by ``np.array_equal``.
A split that cut a reduction axis (summing partial products of row
blocks) would round differently and fail here.
"""

import threading
import time

import numpy as np
import pytest

from repro import lanes
from repro.graphs import load_dataset, synthetic_features
from repro.kernels import BasicKernel
from repro.nn import Adam, Trainer, build_model
from repro.nn.layers import (
    grad_pre_activation,
    grads_after_aggregation,
    grads_before_aggregation,
    layer_operand,
    layer_output,
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
    import os

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
