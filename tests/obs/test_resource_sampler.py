"""Unit tests for the background process-resource sampler."""

import threading
import time

import pytest

from repro import cli, obs
from repro.obs import ResourceSampler
from repro.obs.metrics import MetricsRegistry


class TestSampleOnce:
    def test_publishes_proc_metrics(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler(registry)
        sample = sampler.sample_once()
        assert sample["rss_bytes"] > 0  # a live Python process has RSS
        assert sample["num_threads"] >= 1
        snap = registry.snapshot()
        assert snap["proc.rss_bytes"]["value"] == sample["rss_bytes"]
        assert snap["proc.samples"]["value"] == 1.0
        assert snap["proc.rss_bytes.samples"]["count"] == 1

    def test_first_sample_suppresses_cpu_percent(self):
        # Regression: the first sample has no prior *sample* to delta
        # against — its percent was init-to-now garbage (often wildly
        # inflated by a sub-millisecond wall interval).  It must prime
        # the baseline and publish no percent at all.
        registry = MetricsRegistry()
        sampler = ResourceSampler(registry)
        first = sampler.sample_once()
        assert "cpu_percent" not in first
        snap = registry.snapshot()
        assert "proc.cpu_percent" not in snap
        assert "proc.cpu_percent.samples" not in snap
        second = sampler.sample_once()
        assert "cpu_percent" in second
        snap = registry.snapshot()
        assert snap["proc.cpu_percent.samples"]["count"] == 1

    def test_restart_reprimes_the_baseline(self):
        sampler = ResourceSampler(MetricsRegistry(), interval_s=0.01)
        assert "cpu_percent" not in sampler.sample_once()
        assert "cpu_percent" in sampler.sample_once()
        sampler.start()  # start() resets the baseline: stale delta again
        assert sampler._primed is False
        sampler.stop()

    def test_cpu_percent_nonnegative(self):
        sampler = ResourceSampler(MetricsRegistry())
        sampler.sample_once()  # primes the baseline, publishes no percent
        for _ in range(3):
            assert sampler.sample_once()["cpu_percent"] >= 0.0

    def test_cpu_seconds_cumulative_gauge(self):
        # Besides the between-samples cpu_percent delta, the cumulative
        # process CPU time is exposed as its own monotone gauge.
        registry = MetricsRegistry()
        sampler = ResourceSampler(registry)
        first = sampler.sample_once()["cpu_seconds"]
        sum(i * i for i in range(200_000))  # burn a little CPU
        second = sampler.sample_once()["cpu_seconds"]
        assert second >= first >= 0.0
        snap = registry.snapshot()
        assert snap["proc.cpu_seconds"]["value"] == second
        assert snap["proc.cpu_seconds"]["updated_monotonic"] is not None

    def test_cpu_percent_reflects_delta_between_samples(self):
        sampler = ResourceSampler(MetricsRegistry())
        sampler.sample_once()
        sum(i * i for i in range(2_000_000))  # measurable busy interval
        assert sampler.sample_once()["cpu_percent"] > 0.0


class TestBackgroundThread:
    def test_start_stop_collects_samples(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler(registry, interval_s=0.005)
        sampler.start()
        time.sleep(0.05)
        sampler.stop()
        # At least the final stop() sample; usually several interval ticks.
        assert registry.snapshot()["proc.samples"]["value"] >= 1
        # The daemon thread is gone after stop().
        names = [t.name for t in threading.enumerate()]
        assert "repro-resource-sampler" not in names

    def test_start_idempotent(self):
        sampler = ResourceSampler(MetricsRegistry(), interval_s=0.01)
        sampler.start()
        thread = sampler._thread
        sampler.start()
        assert sampler._thread is thread
        sampler.stop()

    def test_context_manager(self):
        registry = MetricsRegistry()
        with ResourceSampler(registry, interval_s=0.01):
            pass
        assert registry.snapshot()["proc.samples"]["value"] >= 1

    def test_stop_without_start(self):
        ResourceSampler(MetricsRegistry()).stop()  # must not raise

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            ResourceSampler(MetricsRegistry(), interval_s=0.0)


class TestNullSampler:
    """Without ``--serve-metrics`` no sampler runs: rules and ``--json``
    turn the registry on, but it gathers no ``proc.*`` metric."""

    @staticmethod
    def _telemetry(tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("the resource sampler started")

        monkeypatch.setattr(ResourceSampler, "start", refuse)
        args = cli.build_parser().parse_args(
            ["train", "products", "--json", str(tmp_path / "run.json")]
        )
        return cli._telemetry(args, {}, rules=obs.RuleEngine([]))

    def test_null_is_inert(self, tmp_path, monkeypatch):
        with self._telemetry(tmp_path, monkeypatch):
            metrics = obs.get_metrics()
            assert metrics.enabled
            time.sleep(0.05)
            assert not any(k.startswith("proc.") for k in metrics.snapshot())

    def test_null_context_manager(self, tmp_path, monkeypatch):
        before = set(threading.enumerate())
        with self._telemetry(tmp_path, monkeypatch):
            assert set(threading.enumerate()) == before
        names = [t.name for t in threading.enumerate()]
        assert "repro-resource-sampler" not in names
