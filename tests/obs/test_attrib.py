"""Unit tests for bottleneck attribution (span -> analytic prediction)."""

import math
from types import SimpleNamespace

import pytest

from repro.obs.attrib import attribute_run, workload_from_span
from repro.perf.machine import cascade_lake_28
from repro.perf.traffic import (
    LayerShape, aggregation_traffic, compressed_effective_feature_len,
)


def basic_record(**overrides):
    record = {
        "kind": "span",
        "span_id": 3,
        "parent_id": None,
        "name": "kernel.basic",
        "duration_s": 0.004,
        "attrs": {"vertices": 1000, "edges": 8000, "features": 32},
        "counters": {"gathers": 9000.0, "flops": 576000.0},
    }
    record.update(overrides)
    return record


def fixed_rate(hit_rate):
    """A cost model that prices every order at one gather hit rate."""
    return SimpleNamespace(machine=cascade_lake_28(),
                           hit_rate=lambda order: hit_rate)


def backward_record():
    record = basic_record(name="kernel.backward.basic", span_id=4)
    record["attrs"] = {"vertices": 1000, "edges": 8000, "features": 16}
    return record


class TestWorkloadFromSpan:
    def test_non_kernel_span_is_skipped(self):
        assert workload_from_span({"name": "epoch", "attrs": {}}) is None
        assert workload_from_span({"name": "sim.basic", "attrs": {}}) is None

    def test_basic_span_shape(self):
        workload = workload_from_span(basic_record())
        assert workload is not None
        assert workload.variant == "basic"
        assert workload.shape == LayerShape(1000, 8000, 32, 32)
        assert not workload.spec.fused and not workload.spec.compressed

    def test_missing_shape_returns_none(self):
        """Every kernel span records its shape; one that lacks a part
        (``edges``) is not guessed from its counters."""
        assert workload_from_span({"name": "kernel.basic", "attrs": {}}) is None
        record = basic_record()
        del record["attrs"]["edges"]
        assert workload_from_span(record) is None


class TestPredictions:
    def test_traffic_matches_cost_model_plane(self):
        (span,) = attribute_run([basic_record()], cost_model=fixed_rate(0.5)).spans
        expected = aggregation_traffic(LayerShape(1000, 8000, 32, 32), 0.5)
        assert span.predicted_dram_bytes == expected.dram_total
        assert set(span.phases) == {"aggregation"}

    def test_compressed_effective_feature_len(self):
        assert compressed_effective_feature_len(32, 0.5) == 16
        assert compressed_effective_feature_len(32, 1.0) == 32
        assert compressed_effective_feature_len(3, 0.01) == 1
        with pytest.raises(ValueError):
            compressed_effective_feature_len(32, 0.0)


class TestAttributeRun:
    def test_basic_span_is_memory_bound(self):
        report = attribute_run([basic_record()], cost_model=fixed_rate(0.0))
        assert len(report.spans) == 1
        span = report.spans[0]
        assert span.variant == "basic"
        # Zero hit rate aggregation at f=32: classic Figure 3 regime.
        assert span.verdict == "memory-bound"
        assert span.memory_bound_fraction > 0.5
        assert span.predicted_dram_bytes > 0
        assert span.measured["gathers"] == 9000.0

    def test_non_kernel_records_ignored(self):
        records = [
            {"name": "epoch", "attrs": {}, "counters": {}},
            basic_record(),
        ]
        report = attribute_run(records, cost_model=fixed_rate(0.0))
        assert len(report.spans) == 1

    def test_technique_totals_accumulate(self):
        report = attribute_run([basic_record(), basic_record()], cost_model=fixed_rate(0.0))
        totals = report.technique_totals["basic"]
        assert totals["spans"] == 2.0
        assert totals["aggregation_dram_bytes"] == pytest.approx(
            2.0 * report.spans[0].aggregation_dram_bytes
        )

    def test_render(self):
        report = attribute_run([basic_record(), backward_record()], cost_model=fixed_rate(0.5))
        text = report.render()
        assert "kernel.basic" in text and "kernel.backward.basic" in text
        assert "  basic " in text and "over 2 span(s)" in text
        assert "reconcile" not in text
        assert len(report.spans) == 2
        assert math.isfinite(report.spans[0].predicted_dram_bytes)
