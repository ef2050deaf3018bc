"""Shared fixtures: small graphs and features reused across the suite."""

import logging

import numpy as np
import pytest

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
