"""The graph the serving suites share."""

import numpy as np
import pytest

from repro.graphs import CSRGraph, power_law_graph


@pytest.fixture(scope="session")
def hub_and_loner():
    """A power-law graph (its hub gathers a fifth of the vertices) plus
    one vertex with no edge at all."""
    base = power_law_graph(300, 6.0, seed=3)
    dst = np.repeat(np.arange(base.num_vertices), base.degrees())
    edges = np.stack([dst, base.indices], axis=1)
    return CSRGraph.from_edges(base.num_vertices + 1, edges, name="hub+loner")
