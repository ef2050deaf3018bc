"""Shared fixtures: small graphs and features reused across the suite."""

import logging
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro import lanes
from repro.graphs import (
    CSRGraph,
    chain_graph,
    community_graph,
    grid_graph,
    load_dataset,
    star_graph,
    synthetic_features,
    uniform_graph,
)
from repro.kernels import BasicKernel
from repro.nn.layers import output_sweep
from repro.tensors.compression import compress_matrix, decompress_matrix


@pytest.fixture(autouse=True)
def restore_repro_logging():
    """``repro.cli.main`` installs a ``StreamHandler`` on the ``repro``
    logger, bound to the stderr capture of the test that called it; left
    behind, a later test's log record prints "Logging error" through the
    closed capture onto the live stderr."""
    logger = logging.getLogger("repro")
    handlers, level = logger.handlers[:], logger.level
    yield
    logger.handlers[:] = handlers
    logger.setLevel(level)


@pytest.fixture
def lane_count():
    """Set the lane count for one test; restored afterwards."""
    previous = lanes.lane_count()
    yield lanes.set_lane_count
    lanes.set_lane_count(previous)


@pytest.fixture
def always_split(monkeypatch, lane_count):
    """Split every call, however small."""
    monkeypatch.setattr(lanes, "MIN_SPLIT_BYTES", 0)
    return lane_count


SHM_DIR = "/dev/shm"

#: How long the leak check waits, in total, for threads a test started
#: to finish before it calls them leaked.
THREAD_JOIN_S = 5.0


def _shm_entries() -> set:
    return set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else set()


@pytest.fixture
def no_leaked_resources():
    """Fail a test that leaves a live child process, a new ``/dev/shm``
    entry, or a thread it started still running (after a bounded join).

    ``tests/parallel/`` and ``tests/serve/`` apply it to every test
    through their ``conftest.py``.
    """
    threads_before = set(threading.enumerate())
    shm_before = _shm_entries()
    yield
    children = multiprocessing.active_children()
    deadline = time.monotonic() + THREAD_JOIN_S
    alive = []
    for thread in threading.enumerate():
        if thread in threads_before or thread is threading.current_thread():
            continue
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            alive.append(thread.name)
    leaked_shm = _shm_entries() - shm_before
    assert not children, f"live child processes after the test: {children}"
    assert not leaked_shm, f"new {SHM_DIR} entries: {sorted(leaked_shm)}"
    assert not alive, f"threads still running after the test: {alive}"


@pytest.fixture(scope="session")
def tiny_graph() -> CSRGraph:
    """A hand-built 5-vertex graph with known structure.

    Edges (dst <- src): 0<-1, 0<-2, 1<-2, 2<-3, 3<-{0,1,2}, 4 isolated.
    """
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0), (3, 1), (3, 2)]
    return CSRGraph.from_edges(5, edges, name="tiny")


@pytest.fixture(scope="session")
def small_products() -> CSRGraph:
    """A small products twin shared by kernel-equivalence tests."""
    return load_dataset("products", scale=0.05, seed=3)


@pytest.fixture(scope="session")
def small_uniform() -> CSRGraph:
    return uniform_graph(120, avg_degree=6.0, seed=1, name="u120")


@pytest.fixture(scope="session")
def small_community() -> CSRGraph:
    return community_graph(
        256, avg_degree=10.0, community_size=16, within_fraction=0.8, seed=2
    )


@pytest.fixture(scope="session")
def grid16() -> CSRGraph:
    return grid_graph(4)


@pytest.fixture(scope="session")
def star10() -> CSRGraph:
    return star_graph(10)


@pytest.fixture(scope="session")
def chain20() -> CSRGraph:
    return chain_graph(20)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def features16(small_products):
    return synthetic_features(small_products, 16, seed=7)


# ----------------------------------------------------------------------
# The paper's variants as the value plane runs them.  Alg. 2's fused
# layer (S2) is BasicKernel's pass followed by GNNLayer's sweep over row
# blocks; S3 is the lossless mask-compressed format of
# ``repro.tensors.compression`` feeding that same kernel.
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def s2_layer():
    """``run(graph, h, params, aggregator) -> (h_out, a, stats)``:
    ``a = Â h`` through a fresh ``BasicKernel``, then ``act(a W + b)`` as
    :func:`output_sweep` runs it block by block."""

    def run(graph, h, params, aggregator="gcn"):
        a, stats = BasicKernel().aggregate(graph, h, aggregator)
        h_out, _ = output_sweep(
            a, params.weight, params.bias, params.activation, tf=False
        )
        return h_out, a, stats

    return run


@pytest.fixture(scope="session")
def s3_round_trip():
    """``h`` through the S3 format and back: ``compress_matrix`` then
    ``decompress_matrix``."""
    return lambda h: decompress_matrix(compress_matrix(h))
