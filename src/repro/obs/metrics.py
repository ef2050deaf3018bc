"""Process-wide metrics registry: counters, gauges, histograms.

Every instrumented subsystem publishes into one namespace so a run's
numbers are joinable afterwards:

* ``kernel.<name>.*`` — the :class:`~repro.kernels.base.KernelStats`
  counters of each kernel invocation (``kernel.basic.gathers``, ...);
* ``train.*`` — the trainer's per-epoch plane (``train.loss``,
  ``train.nonfinite``) and ``alerts.*`` — the rule engine's verdicts.

Like the tracer, the registry is **disabled by default**: the module
singleton is a :class:`NullRegistry` whose operations are no-ops and
whose ``enabled`` flag lets publishers skip building metric dicts
entirely.  ``set_metrics(MetricsRegistry())`` turns collection on.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, List, Mapping, Optional, Union

#: Raw observations a histogram keeps for exact percentiles; beyond this
#: the estimate falls back to the log-scaled bucket counts.
HISTOGRAM_SAMPLE_CAP = 512

#: Exported percentile summaries (see :meth:`Histogram.to_dict`).
HISTOGRAM_PERCENTILES = (50.0, 95.0, 99.0)


class Counter:
    """Monotonically increasing sum.

    ``inc`` is guarded by a lock: worker threads publish into shared
    counters, and a bare float ``+=`` is a read-modify-write that drops
    increments under contention.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self.value += amount

    def to_dict(self) -> Dict[str, float]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins scalar with a monotonic last-update timestamp.

    The timestamp (``time.monotonic()`` at the last ``set``/``add``)
    rides along in :meth:`to_dict` as ``updated_monotonic`` so live
    views can flag stale values — e.g. a ``proc.rss_bytes`` gauge whose
    sampler thread died keeps its last value but stops advancing.
    """

    __slots__ = ("value", "updated_monotonic", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self.updated_monotonic: Optional[float] = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)
            self.updated_monotonic = time.monotonic()

    def add(self, delta: float) -> None:
        """Atomic in-place adjustment (live queue-depth style gauges)."""
        with self._lock:
            self.value += float(delta)
            self.updated_monotonic = time.monotonic()

    def age_s(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds since the last update (None when never written)."""
        if self.updated_monotonic is None:
            return None
        return (time.monotonic() if now is None else now) - self.updated_monotonic

    def to_dict(self) -> Dict[str, float]:
        return {
            "type": "gauge",
            "value": self.value,
            "updated_monotonic": self.updated_monotonic,
        }


class Histogram:
    """Streaming summary with percentile estimation.

    Keeps count / total / min / max plus the raw observations up to
    :data:`HISTOGRAM_SAMPLE_CAP`; past the cap, log2-scaled bucket counts
    take over and :meth:`percentile` interpolates inside the bucket.  The
    exported document therefore always carries p50/p95/p99 — exact for
    the typical few-hundred-observation run, bounded-error afterwards.

    ``observe`` / ``percentile`` / ``to_dict`` are guarded by one lock:
    worker threads observe concurrently while a live scrape exports, and
    an unguarded export could otherwise iterate ``_buckets`` mid-resize
    or see ``count`` disagree with the sample list.
    """

    __slots__ = ("count", "total", "min", "max", "_samples", "_buckets", "_lock")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: List[float] = []
        self._buckets: Dict[int, int] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _bucket_of(value: float) -> int:
        if value <= 0.0:
            return -1074  # below any positive float's exponent
        return math.frexp(value)[1]  # exponent e with value in [2^(e-1), 2^e)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)
            if len(self._samples) < HISTOGRAM_SAMPLE_CAP:
                self._samples.append(value)
            bucket = self._bucket_of(value)
            self._buckets[bucket] = self._buckets.get(bucket, 0) + 1

    def time(self) -> "_HistogramTimer":
        """Context manager observing the block's monotonic duration.

        ``with hist.time(): ...`` is equivalent to measuring the block
        with ``time.perf_counter()`` and calling :meth:`observe` with
        the difference — the duration is recorded even when the block
        raises, so error latencies still land in the distribution.
        """
        return _HistogramTimer(self)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Value at percentile ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            return self._percentile(q)

    def _percentile(self, q: float) -> float:
        """Unlocked percentile body (callers hold ``_lock``)."""
        if self.count == 0:
            return 0.0
        # The extremes are tracked exactly; the bucket estimate would
        # otherwise answer with a bucket bound (wrong for values <= 0,
        # which share one sentinel underflow bucket).
        if q == 0.0:
            return self.min
        if q == 100.0:
            return self.max
        if len(self._samples) == self.count:
            # Exact: linear interpolation over the sorted raw samples.
            ordered = sorted(self._samples)
            rank = (q / 100.0) * (len(ordered) - 1)
            lo = int(math.floor(rank))
            hi = min(lo + 1, len(ordered) - 1)
            frac = rank - lo
            return ordered[lo] * (1.0 - frac) + ordered[hi] * frac
        # Estimate: walk the log buckets to the one holding the rank,
        # interpolate linearly within its [2^(e-1), 2^e) range.
        target = (q / 100.0) * self.count
        seen = 0
        for bucket in sorted(self._buckets):
            in_bucket = self._buckets[bucket]
            if seen + in_bucket >= target:
                low = 0.0 if bucket <= -1074 else math.ldexp(1.0, bucket - 1)
                high = math.ldexp(1.0, bucket)
                frac = (target - seen) / in_bucket
                value = low + (high - low) * frac
                return min(max(value, self.min), self.max)
            seen += in_bucket
        return self.max

    def to_dict(self) -> Dict[str, float]:
        with self._lock:
            out = {
                "type": "histogram",
                "count": self.count,
                "total": self.total,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0,
                "mean": self.total / self.count if self.count else 0.0,
            }
            for q in HISTOGRAM_PERCENTILES:
                out[f"p{q:g}"] = self._percentile(q)
            return out


class _HistogramTimer:
    """Times a ``with`` block and observes the duration in seconds."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name -> metric map with get-or-create accessors.

    Names are dot-separated, lowercase, ``<subsystem>.<detail>`` (see
    the module docstring).  Re-registering a name with a different
    metric type raises — a namespace collision is a bug, not data.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, cls: type) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls()
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, requested {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)  # type: ignore[return-value]

    # Convenience one-shots ------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Immutable dict view of every metric, sorted by name."""
        with self._lock:
            return {
                name: self._metrics[name].to_dict()
                for name in sorted(self._metrics)
            }

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        with self._lock:  # same discipline as snapshot(): never read bare
            return len(self._metrics)


class NullRegistry(MetricsRegistry):
    """Disabled registry: publishers check ``enabled`` and skip work."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = Counter()
        self._null_gauge = Gauge()
        self._null_histogram = Histogram()

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str) -> Histogram:
        return self._null_histogram

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


NULL_REGISTRY = NullRegistry()


def publish_counters(
    registry: MetricsRegistry, prefix: str, counters: Mapping[str, float]
) -> None:
    """Add a dict of counter deltas under ``prefix.`` (no-op if disabled).

    Counters only grow: the whole batch is checked first, so a negative
    delta raises ``ValueError`` naming ``prefix.key`` and no counter of
    the batch changes.
    """
    if not registry.enabled:
        return
    for key, value in counters.items():
        if value < 0:
            raise ValueError(
                f"counter {prefix}.{key} cannot decrease (delta {value})"
            )
    for key, value in counters.items():
        registry.inc(f"{prefix}.{key}", value)
