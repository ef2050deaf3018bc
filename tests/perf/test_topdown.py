"""Unit tests for the top-down pipeline-slot model (Fig. 3 / Table 4)."""

import pytest

from repro.graphs import load_dataset
from repro.perf import CostModel, characterize


@pytest.fixture(scope="module")
def model():
    return CostModel(load_dataset("products", scale=0.25, seed=0))


class TestBreakdownStructure:
    def test_slots_sum_to_one(self, model):
        report = characterize(model, "distgnn", 100, 128)
        total = (
            report.retiring
            + report.frontend_bound
            + report.core_bound
            + report.memory_bound
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_all_fractions_in_range(self, model):
        for variant in ("distgnn", "mkl", "combined", "c-locality"):
            report = characterize(model, variant, 100, 128)
            for value in (
                report.retiring,
                report.memory_bound,
                report.dram_bandwidth_bound,
                report.dram_latency_bound,
                report.fill_buffer_full,
                report.l2_bound,
                report.l3_bound,
            ):
                assert 0.0 <= value <= 1.0


class TestPaperShape:
    def test_baseline_heavily_memory_bound(self, model):
        """Figure 3: ~10% retiring, >55% memory bound for the baseline."""
        report = characterize(model, "distgnn", 100, 128)
        assert report.retiring < 0.2
        assert report.memory_bound > 0.5

    def test_optimizations_raise_retiring(self, model):
        base = characterize(model, "distgnn", 100, 128)
        combined = characterize(model, "combined", 100, 128)
        locality = characterize(model, "c-locality", 100, 128)
        assert combined.retiring > base.retiring
        assert locality.retiring >= combined.retiring

    def test_optimizations_lower_memory_bound(self, model):
        base = characterize(model, "distgnn", 100, 128)
        locality = characterize(model, "c-locality", 100, 128)
        assert locality.memory_bound < base.memory_bound

    def test_baseline_fill_buffers_pegged(self, model):
        """Section 3: the fill buffers are full ~100% of the time."""
        report = characterize(model, "distgnn", 100, 128)
        assert report.fill_buffer_full == 1.0

    def test_baseline_breakdown_values(self, model):
        """The calibrated split at one fixed input, which the shape
        checks above hold across a range of."""
        report = characterize(model, "distgnn", 100, 128)
        assert report.frontend_bound == 0.033
        assert report.retiring == pytest.approx(0.0776930, rel=1e-5)
        assert report.memory_bound == pytest.approx(0.6855129, rel=1e-5)
        assert report.core_bound == pytest.approx(0.2037941, rel=1e-5)

    def test_as_row_renders(self, model):
        report = characterize(model, "distgnn", 100, 128)
        assert "distgnn" in report.as_row()


class TestTable4OperatingPoint:
    """Table 4's setting: GCN training at 50% feature sparsity."""

    def _report(self, model, variant):
        return characterize(model, variant, 64, 128, training=True, sparsity=0.5)

    def test_baseline_is_memory_bound(self, model):
        """The Figure 3 premise Table 4 elaborates: DistGNN stalls on memory."""
        report = self._report(model, "distgnn")
        assert report.memory_bound > 0.5
        assert report.memory_bound > report.retiring

    def test_locality_retires_more_and_stalls_less(self, model):
        base = self._report(model, "distgnn")
        best = self._report(model, "c-locality")
        assert best.retiring > base.retiring
        assert best.memory_bound < base.memory_bound
