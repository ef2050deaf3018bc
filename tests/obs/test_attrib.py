"""Unit tests for bottleneck attribution (span -> analytic prediction)."""

import math

import pytest

from repro.obs.attrib import (
    DEFAULT_TRAFFIC_TOLERANCE,
    attribute_run,
    sim_traffic_from_metrics,
    workload_from_span,
)
from repro.perf.traffic import (
    LayerShape,
    aggregation_traffic,
    compressed_effective_feature_len,
    update_traffic,
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


def fused_record(keep_aggregation=False):
    return {
        "kind": "span",
        "span_id": 5,
        "parent_id": None,
        "name": "kernel.fusion",
        "duration_s": 0.003,
        "attrs": {
            "vertices": 1000,
            "edges": 8000,
            "features": 32,
            "features_out": 16,
            "keep_aggregation": keep_aggregation,
        },
        "counters": {"gathers": 9000.0},
    }


class TestWorkloadFromSpan:
    def test_non_kernel_span_is_skipped(self):
        assert workload_from_span({"name": "epoch", "attrs": {}}) is None
        assert workload_from_span({"name": "sim.basic", "attrs": {}}) is None

    def test_basic_span_shape(self):
        workload = workload_from_span(basic_record())
        assert workload is not None
        assert workload.variant == "basic"
        assert workload.shape == LayerShape(1000, 8000, 32, 32)
        assert workload.write_a  # unfused always writes a
        assert not workload.spec.fused and not workload.spec.compressed

    def test_fused_inference_drops_a_write(self):
        workload = workload_from_span(fused_record(keep_aggregation=False))
        assert workload.spec.fused
        assert workload.shape == LayerShape(1000, 8000, 32, 16)
        assert not workload.write_a

    def test_fused_training_keeps_a_write(self):
        workload = workload_from_span(fused_record(keep_aggregation=True))
        assert workload.write_a

    def test_missing_shape_returns_none(self):
        """Every kernel span records its shape; one that lacks a part
        (``edges``, or a fused span's ``features_out``) is not guessed
        from its counters."""
        assert workload_from_span({"name": "kernel.basic", "attrs": {}}) is None
        record = basic_record()
        del record["attrs"]["edges"]
        assert workload_from_span(record) is None
        record = fused_record()
        del record["attrs"]["features_out"]
        assert workload_from_span(record) is None


class TestPredictions:
    def test_traffic_matches_cost_model_plane(self):
        (span,) = attribute_run([basic_record()], hit_rate=0.5).spans
        expected = aggregation_traffic(LayerShape(1000, 8000, 32, 32), 0.5)
        assert span.predicted_dram_bytes == expected.dram_total
        assert set(span.phases) == {"aggregation"}

    def test_fused_span_gets_update_phase(self):
        (span,) = attribute_run([fused_record()], hit_rate=0.5).spans
        assert set(span.phases) == {"aggregation", "update"}
        update = update_traffic(LayerShape(1000, 8000, 32, 16), fused=True)
        assert span.phases["update"]["dram_write"] == update.dram_write

    def test_compressed_effective_feature_len(self):
        assert compressed_effective_feature_len(32, 0.5) == 16
        assert compressed_effective_feature_len(32, 1.0) == 32
        assert compressed_effective_feature_len(3, 0.01) == 1
        with pytest.raises(ValueError):
            compressed_effective_feature_len(32, 0.0)


class TestAttributeRun:
    def test_basic_span_is_memory_bound(self):
        report = attribute_run([basic_record()], hit_rate=0.0)
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
        report = attribute_run(records, hit_rate=0.0)
        assert len(report.spans) == 1

    def test_technique_totals_accumulate(self):
        report = attribute_run([basic_record(), basic_record()], hit_rate=0.0)
        totals = report.technique_totals["basic"]
        assert totals["spans"] == 2.0
        assert totals["aggregation_dram_bytes"] == pytest.approx(
            2.0 * report.spans[0].aggregation_dram_bytes
        )

    def test_reconciliation_within_tolerance(self):
        report = attribute_run(
            [basic_record()],
            hit_rate=0.0,
            sim_dram_bytes={
                "basic": 1.1 * aggregation_traffic(
                    LayerShape(1000, 8000, 32, 32), gather_hit_rate=0.0
                ).dram_total
            },
        )
        assert len(report.reconciliations) == 1
        rec = report.reconciliations[0]
        assert rec.within_tolerance
        assert rec.relative_error == pytest.approx(0.1 / 1.1, rel=1e-6)
        assert report.divergent() == []

    def test_divergence_is_flagged(self):
        report = attribute_run(
            [basic_record()],
            hit_rate=0.0,
            sim_dram_bytes={"basic": 1e12},
        )
        assert not report.reconciliations[0].within_tolerance
        assert [r.variant for r in report.divergent()] == ["basic"]

    def test_sim_traffic_from_metrics_snapshot(self):
        snapshot = {
            "sim.basic.dram.bytes_served": {"type": "counter", "value": 4096.0},
            "sim.basic.runs": {"type": "counter", "value": 2.0},
            "sim.fusion.dram.bytes_served": {"type": "counter", "value": 1024.0},
            "executor.tasks": {"type": "counter", "value": 7.0},
        }
        traffic = sim_traffic_from_metrics(snapshot)
        assert traffic["basic"] == {"bytes": 4096.0, "runs": 2.0}
        assert traffic["fusion"] == {"bytes": 1024.0, "runs": 1.0}
        assert "executor.tasks" not in traffic

    def test_snapshot_drives_reconciliation_per_pass(self):
        model = aggregation_traffic(
            LayerShape(1000, 8000, 32, 32), gather_hit_rate=0.0
        ).dram_total
        snapshot = {
            "sim.basic.dram.bytes_served": {"type": "counter", "value": 2.0 * model},
            "sim.basic.runs": {"type": "counter", "value": 2.0},
        }
        report = attribute_run(
            [basic_record()], hit_rate=0.0, metrics_snapshot=snapshot
        )
        rec = report.reconciliations[0]
        assert rec.sim_bytes == pytest.approx(model)
        assert rec.relative_error == pytest.approx(0.0, abs=1e-9)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            attribute_run([basic_record()], tolerance=-0.1)

    def test_render(self):
        report = attribute_run(
            [basic_record(), fused_record()],
            hit_rate=0.5,
            sim_dram_bytes={"basic": 1.0e6},
        )
        text = report.render()
        assert "kernel.basic" in text and "kernel.fusion" in text
        assert "reconcile basic" in text
        assert f"(tol {DEFAULT_TRAFFIC_TOLERANCE:.0%})" in text
        assert report.tolerance == DEFAULT_TRAFFIC_TOLERANCE
        assert len(report.spans) == 2
        assert math.isfinite(report.spans[0].predicted_dram_bytes)
