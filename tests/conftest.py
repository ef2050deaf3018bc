"""Shared fixtures: small graphs and features reused across the suite."""

import contextlib
import importlib.util
import io
import logging
import multiprocessing
import os
import pathlib
import sys
import threading
import time
from typing import NamedTuple

import numpy as np
import pytest

from repro import lanes, obs
from repro.graphs import (
    CSRGraph,
    apply_order,
    chain_graph,
    community_graph,
    grid_graph,
    load_dataset,
    locality_order,
    natural_order,
    randomized_order,
    star_graph,
    synthetic_features,
    uniform_graph,
)
from repro.kernels import BasicKernel, UpdateParams
from repro.nn import GNNLayer, GNNModel
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
    Every test under ``tests/parallel/`` and ``tests/serve/`` runs under
    it (:func:`_leak_check`).
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


@pytest.fixture(autouse=True)
def _leak_check(request):
    """The leak check for the suites that start processes and servers."""
    if request.path.parent.name in ("parallel", "serve"):
        request.getfixturevalue("no_leaked_resources")


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


@pytest.fixture(scope="session")
def telemetry():
    """``with telemetry() as (tracer, registry):`` live telemetry for
    the block, switched off again after it."""

    @contextlib.contextmanager
    def enabled():
        try:
            yield obs.enable()
        finally:
            obs.disable()

    return enabled


@pytest.fixture(scope="session")
def stack_model():
    """``stack(widths)``: a GCN of those widths, ReLU on every layer but
    the last, layer ``k`` seeded ``k``."""

    def stack(widths):
        return GNNModel([
            GNNLayer(widths[k], widths[k + 1],
                     activation=k < len(widths) - 2, seed=k)
            for k in range(len(widths) - 1)
        ])

    return stack


# ----------------------------------------------------------------------
# The paper's variants as the value plane runs them.  Alg. 2's fused
# layer (S2) is BasicKernel's pass followed by GNNLayer's sweep over row
# blocks; S3 is the lossless mask-compressed format of
# ``repro.tensors.compression`` feeding that same kernel.  Section 4.4's
# processing orders enter as relabels of the graph.
# ----------------------------------------------------------------------

#: The value plane's variants: (S3 round trip of ``h``, S2 sweep).
VARIANTS = {
    "basic": (False, False),
    "compression": (True, False),
    "fusion": (False, True),
    "combined": (True, True),
}

ORDERS = {
    "natural": natural_order,
    "randomized": lambda graph: randomized_order(graph, seed=5),
    "locality": locality_order,
}


@pytest.fixture(scope="session")
def run_variant():
    """``run(name, graph, h, aggregator, params) -> (out, a, stats)``:
    ``a = Â h`` through a fresh ``BasicKernel`` (over ``h``'s S3 round
    trip for compression / combined); ``out`` is ``a``, or for fusion /
    combined ``act(a W + b)`` as :func:`output_sweep` runs it block by
    block."""

    def run(name, graph, h, aggregator="gcn", params=None):
        compressed, fused = VARIANTS[name]
        if compressed:
            h = decompress_matrix(compress_matrix(h))
        a, stats = BasicKernel().aggregate(graph, h, aggregator)
        out = a
        if fused:
            out, _ = output_sweep(
                a, params.weight, params.bias, params.activation, tf=False
            )
        return out, a, stats

    return run


@pytest.fixture(scope="session")
def update_params():
    """``make(f_in, f_out, seed)``: seeded random update parameters."""

    def make(f_in, f_out, seed=0):
        rng = np.random.default_rng(seed)
        return UpdateParams(
            weight=(rng.standard_normal((f_in, f_out)) * 0.2).astype(np.float32),
            bias=(rng.standard_normal(f_out) * 0.1).astype(np.float32),
        )

    return make


@pytest.fixture(scope="session")
def relabel():
    """``relabel(graph, h, order_name) -> (graph', h')``: ``graph``
    relabelled by one processing order of :data:`ORDERS`, with its
    feature rows."""

    def run(graph, h, order_name):
        order = ORDERS[order_name](graph)
        return apply_order(graph, order), h[order]

    return run


@pytest.fixture(scope="session")
def run_all():
    """``benchmarks/run_all.py`` as a module.  It imports ``criteria``
    from beside itself, as it does when run as a script."""
    benchmarks = str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks")
    sys.path.insert(0, benchmarks)
    try:
        spec = importlib.util.spec_from_file_location(
            "run_all", f"{benchmarks}/run_all.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(benchmarks)
    return module


#: The scale the test suite runs the paper plan at.  Every criterion but
#: the paper-deviation bounds holds here; the hardware twins are 0.075.
PAPER_SCALE = 0.25


class PaperRun(NamedTuple):
    code: int
    out: str
    err: str
    directory: pathlib.Path
    scale: float


@pytest.fixture(scope="session")
def paper_run(run_all, tmp_path_factory) -> PaperRun:
    """One run of the whole plan at ``PAPER_SCALE`` into a temp directory
    (``EXPERIMENTS.md``, ``results.json``), shared by the session."""
    out = tmp_path_factory.mktemp("paper")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_all.main([
            str(out / "EXPERIMENTS.md"), "--json", str(out / "results.json"),
            "--scale", str(PAPER_SCALE),
        ])
    return PaperRun(code, stdout.getvalue(), stderr.getvalue(), out,
                    PAPER_SCALE)
