"""The MKL baseline's SpMM form (Section 6): ``a = Â h`` in one call.

MKL's variant is priced by the cost model, not run; its aggregation is
:func:`repro.nn.aggregate.normalized_adjacency`'s ``Â`` times ``h``, the
product the scipy oracle computes.
"""

import numpy as np
import pytest

from repro.graphs import apply_order, randomized_order
from repro.nn.aggregate import gather_reduce_reference, normalized_adjacency


def spmm(graph, h, aggregator):
    return normalized_adjacency(graph, aggregator) @ h


class TestOrderKwarg:
    """Section 4.4's order reaches SpMM, like every value-plane kernel, as
    a relabel of the graph (:func:`apply_order`): ``Â`` takes no
    ``order`` keyword.  The relabel's refusal of anything but a
    permutation is ``test_edge_cases.py::test_malformed_order_rejected``'s."""

    def test_order_kwarg_is_refused(self, small_products):
        order = randomized_order(small_products, seed=8)
        with pytest.raises(TypeError):
            normalized_adjacency(small_products, "gcn", order=order)

    def test_order_is_noop(self, small_products, features16):
        """One sparse product computes all rows at once: the relabelled
        run, mapped back, is the natural one up to summation order."""
        plain = spmm(small_products, features16, "gcn")
        order = randomized_order(small_products, seed=8)
        relabelled = apply_order(small_products, order)
        ordered = spmm(relabelled, features16[order], "gcn")
        np.testing.assert_allclose(ordered[np.argsort(order)], plain, atol=1e-5)

    def test_matches_oracle_with_order(self, small_products, features16):
        order = randomized_order(small_products, seed=8)
        relabelled, h = apply_order(small_products, order), features16[order]
        out = spmm(relabelled, h, "mean")
        reference = gather_reduce_reference(relabelled, h, "mean")
        np.testing.assert_allclose(out, reference, atol=3e-5)
