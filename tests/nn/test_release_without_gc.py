"""A dropped (graph, kernel, trainer) is freed by refcount, not by GC.

Two reference cycles used to keep every dropped set-up alive until a
generation-2 collection: the cached transpose's strong back-pointer
(``g -> g^T -> g``) and the JIT cache's eviction callback closing over
the cache (``cache -> _tokens -> weakref -> callback -> cache``).  On a
16k-vertex twin that is ~48 MB per set-up — graph arrays, CSC view and
both compiled operators — stacked once per set-up a benchmark makes.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.graphs import power_law_graph, synthetic_features
from repro.kernels import BasicKernel
from repro.nn import Adam, Trainer, build_model
from repro.parallel import ChunkExecutor


@pytest.mark.parametrize(
    "make_executor",
    [
        lambda: None,  # the single-call pass: JIT cache + CSC view
        lambda: ChunkExecutor(2),  # chunk plans: + graph.transpose()
    ],
    ids=["serial", "thread-x2"],
)
def test_dropped_setup_is_released_without_a_collection(make_executor):
    gc.collect()
    gc.disable()
    try:
        graph = power_law_graph(300, 6.0, seed=4, name="leak")
        features = synthetic_features(graph, 12, seed=4)
        labels = np.random.default_rng(4).integers(0, 5, graph.num_vertices)
        model = build_model("gcn", 12, 32, 5, seed=0)
        kernel = BasicKernel(executor=make_executor())
        trainer = Trainer(model, Adam(model, lr=0.01), aggregation_kernel=kernel)
        trainer.train_epoch(graph, features, labels)
        assert len(kernel.jit_cache) == 3  # forward x2 widths, backward x1
        alive = {
            "graph": weakref.ref(graph),
            "kernel": weakref.ref(kernel),
            "jit cache": weakref.ref(kernel.jit_cache),
            "trainer": weakref.ref(trainer),
        }
        del graph, kernel, trainer, model
        leaked = [name for name, ref in alive.items() if ref() is not None]
    finally:
        gc.enable()
    assert leaked == []
