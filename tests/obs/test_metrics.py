"""Unit tests for the metrics registry."""

import threading
import time

import pytest

from repro.obs import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    publish_counters,
)
from repro.obs.metrics import HISTOGRAM_SAMPLE_CAP


def _race(reader, writer, reads=None):
    """Run ``writer()`` while two threads call ``reader()`` until it ends
    (at most ``reads`` times each); the errors the readers raised."""
    stop = threading.Event()
    errors = []

    def loop():
        count = 0
        while not stop.is_set() and count != reads:
            count += 1
            try:
                reader()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)
                return

    threads = [threading.Thread(target=loop) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        writer()
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    return errors


class TestMetricTypes:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(5)
        g.set(2)
        assert g.value == 2.0

    def test_gauge_update_timestamp(self):
        g = Gauge()
        assert g.age_s() is None  # never written
        assert g.to_dict()["updated_monotonic"] is None
        g.set(1.0)
        assert g.age_s(now=g.updated_monotonic + 3.0) == pytest.approx(3.0)
        assert g.to_dict()["updated_monotonic"] == g.updated_monotonic

    def test_gauge_add_updates_timestamp(self):
        g = Gauge()
        g.set(5.0)
        first = g.updated_monotonic
        g.add(-2.0)
        assert g.value == 3.0
        assert g.updated_monotonic >= first

    def test_histogram_summary(self):
        h = Histogram()
        for value in (1.0, 3.0, 2.0):
            h.observe(value)
        assert h.count == 3
        assert h.total == 6.0
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean == pytest.approx(2.0)

    def test_empty_histogram_dict_is_finite(self):
        d = Histogram().to_dict()
        assert d["min"] == 0.0 and d["max"] == 0.0 and d["mean"] == 0.0
        assert d["p50"] == 0.0 and d["p95"] == 0.0 and d["p99"] == 0.0

    def test_histogram_exact_percentiles(self):
        h = Histogram()
        for value in range(1, 101):  # 1..100
            h.observe(float(value))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(95) == pytest.approx(95.05)
        assert h.percentile(99) == pytest.approx(99.01)

    def test_histogram_percentiles_in_export(self):
        h = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            h.observe(value)
        d = h.to_dict()
        assert d["p50"] == pytest.approx(2.5)
        assert d["p99"] <= d["max"]
        assert d["p50"] <= d["p95"] <= d["p99"]

    def test_histogram_bucket_fallback_past_cap(self):
        h = Histogram()
        for _ in range(HISTOGRAM_SAMPLE_CAP + 500):
            h.observe(8.0)  # exactly one bucket: [8, 16)
        p50 = h.percentile(50)
        assert h.min <= p50 <= h.max  # clamped into observed range
        assert p50 == pytest.approx(8.0)

    def test_histogram_bucket_fallback_orders_buckets(self):
        h = Histogram()
        for _ in range(HISTOGRAM_SAMPLE_CAP):
            h.observe(1.0)
        for _ in range(HISTOGRAM_SAMPLE_CAP):
            h.observe(1000.0)
        # Half the mass sits at ~1, half at ~1000: p25 stays low, p95 high.
        assert h.percentile(25) < 2.0
        assert h.percentile(95) > 500.0

    def test_histogram_rejects_bad_percentile(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)
        with pytest.raises(ValueError):
            Histogram().percentile(-0.1)

    def test_histogram_zero_and_negative_values(self):
        h = Histogram()
        for value in (0.0, -1.0, 2.0):
            h.observe(value)
        assert h.percentile(0) == -1.0
        assert h.percentile(100) == 2.0

    def test_bucket_estimate_extreme_percentiles(self):
        # Past the sample cap, q=0 and q=100 must stay clamped to the
        # exact observed min/max even though the buckets only bound them.
        h = Histogram()
        for i in range(HISTOGRAM_SAMPLE_CAP + 100):
            h.observe(3.0 + (i % 7))  # values in [3, 9]
        assert h.percentile(0) == h.min == 3.0
        assert h.percentile(100) == h.max == 9.0

    def test_bucket_estimate_all_equal_values(self):
        h = Histogram()
        for _ in range(HISTOGRAM_SAMPLE_CAP * 2):
            h.observe(5.0)
        for q in (0, 25, 50, 75, 100):
            assert h.percentile(q) == pytest.approx(5.0)

    def test_bucket_estimate_nonpositive_values(self):
        # Zero and negative observations share the sentinel underflow
        # bucket; the estimate must stay within [min, max], never NaN.
        h = Histogram()
        for i in range(HISTOGRAM_SAMPLE_CAP + 50):
            h.observe(-2.0 if i % 2 else 0.0)
        for q in (0, 50, 100):
            value = h.percentile(q)
            assert h.min <= value <= h.max
        assert h.percentile(0) == -2.0
        assert h.percentile(100) == 0.0


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_convenience_oneshots(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set_gauge("g", 7)
        reg.observe("h", 1.5)
        snap = reg.snapshot()
        assert snap["c"]["value"] == 2.0
        assert snap["g"]["value"] == 7.0
        assert snap["h"]["count"] == 1

    def test_snapshot_sorted(self):
        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        assert list(reg.snapshot()) == ["a", "z"]

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.reset()
        assert len(reg) == 0

    def test_len_consistent_under_concurrent_writers(self):
        # __len__ takes the registry lock like snapshot(); hammer it from
        # reader threads while writers register new metrics.
        reg = MetricsRegistry()

        def writer():
            for i in range(2000):
                reg.inc(f"m.{i}")

        assert _race(lambda: len(reg) >= 0, writer) == []
        assert len(reg) == 2000


class TestConcurrency:
    def test_snapshot_vs_reset_race(self):
        # Writers register metrics and readers snapshot()/reset() at the
        # same time: no exception and every snapshot is internally
        # consistent (each doc fully formed).
        reg = MetricsRegistry()

        def churn():
            for doc in reg.snapshot().values():
                assert "type" in doc
            reg.reset()

        def writer():
            for i in range(3000):
                reg.inc(f"c.{i % 7}")
                reg.set_gauge(f"g.{i % 5}", float(i))
                reg.observe("h", float(i % 11))

        assert _race(churn, writer) == []

    def test_counter_concurrent_increments_sum(self):
        c = Counter()

        def bump():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert c.value == 40_000.0

    def test_histogram_to_dict_under_concurrent_observe(self):
        # to_dict() must always see a consistent (count, total, samples)
        # triple: count == 0 implies zeroed summaries, and mean stays
        # within the observed range.  Each reader makes a bounded number
        # of reads: readers spinning until the writer ends would hold the
        # lock most of the time and starve the writer.
        h = Histogram()

        def reader():
            d = h.to_dict()
            assert d["count"] >= 0
            if d["count"]:
                assert d["min"] <= d["mean"] <= d["max"]
                assert d["min"] <= d["p50"] <= d["max"]

        def writer():
            for i in range(20_000):
                h.observe(1.0 + (i % 10))

        assert _race(reader, writer, reads=200) == []
        assert h.count == 20_000


class TestNullRegistry:
    def test_disabled(self):
        assert NullRegistry.enabled is False
        assert MetricsRegistry.enabled is True

    def test_operations_noop(self):
        NULL_REGISTRY.inc("x", 5)
        NULL_REGISTRY.set_gauge("y", 1)
        NULL_REGISTRY.observe("z", 2)
        assert NULL_REGISTRY.snapshot() == {}

    def test_accessors_return_shared_nulls(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")


class TestPublishCounters:
    def test_prefixing(self):
        reg = MetricsRegistry()
        publish_counters(reg, "kernel.basic", {"gathers": 3, "flops": 6.0})
        snap = reg.snapshot()
        assert snap["kernel.basic.gathers"]["value"] == 3.0
        assert snap["kernel.basic.flops"]["value"] == 6.0

    def test_disabled_registry_skipped(self):
        publish_counters(NULL_REGISTRY, "kernel", {"gathers": 3})
        assert NULL_REGISTRY.snapshot() == {}

    def test_negative_delta_raises_and_changes_nothing(self):
        """A counter never turns into a gauge: ``+1`` then ``-1`` under
        one name raises, naming the counter, and leaves every counter of
        the refused batch where it was."""
        reg = MetricsRegistry()
        publish_counters(reg, "kernel.x", {"saved": 1, "gathers": 2})
        with pytest.raises(ValueError, match=r"kernel\.x\.saved"):
            publish_counters(reg, "kernel.x", {"gathers": 5, "saved": -1})
        snap = reg.snapshot()
        assert snap["kernel.x.saved"] == {"type": "counter", "value": 1.0}
        assert snap["kernel.x.gathers"]["value"] == 2.0


class TestHistogramTimer:
    def test_time_observes_block_duration(self):
        h = Histogram()
        with h.time():
            time.sleep(0.01)
        assert h.count == 1
        assert 0.005 <= h.percentile(50.0) < 1.0

    def test_time_matches_manual_observe_semantics(self):
        """A timed block and a manual observe land identically: one
        sample, counted in count/total/percentiles alike."""
        timed, manual = Histogram(), Histogram()
        with timed.time():
            pass
        start = time.perf_counter()
        manual.observe(time.perf_counter() - start)
        assert timed.count == manual.count == 1
        assert timed.total >= 0.0 and manual.total >= 0.0

    def test_time_observes_even_on_exception(self):
        h = Histogram()
        with pytest.raises(RuntimeError):
            with h.time():
                raise RuntimeError("boom")
        assert h.count == 1

    def test_registry_histogram_time_roundtrip(self):
        registry = MetricsRegistry()
        with registry.histogram("stage.s").time():
            pass
        snapshot = registry.snapshot()
        assert snapshot["stage.s"]["count"] == 1

    def test_null_registry_histogram_time_is_noop(self):
        with NULL_REGISTRY.histogram("stage.s").time():
            pass
        assert len(NULL_REGISTRY) == 0
