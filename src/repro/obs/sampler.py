"""Background resource sampler: RSS, CPU utilization, thread count.

Memory-efficiency claims are only auditable when the run records what
the process actually consumed — peak RSS rising with the dataset twin,
CPU utilization collapsing when the run goes memory-bound.  The
:class:`ResourceSampler` runs a daemon thread that samples the process
every ``interval_s`` and publishes into the active metrics registry:

* ``proc.rss_bytes`` (gauge, last sample) and ``proc.rss_bytes.samples``
  (histogram — min/mean/max/percentiles over the run);
* ``proc.cpu_percent`` (gauge) and ``proc.cpu_percent.samples``
  (histogram) — process CPU time *delta between consecutive samples*
  over the wall delta, so 400 means four saturated cores right now;
* ``proc.cpu_seconds`` (gauge) — cumulative user+system CPU time, the
  raw monotone quantity the percent is differentiated from;
* ``proc.num_threads`` (gauge);
* ``proc.samples`` (counter).

No third-party dependency: RSS and thread count come from
``/proc/self`` where it exists (Linux) with a ``resource.getrusage``
fallback, CPU time from ``os.times()``.

Only ``--serve-metrics`` starts one (``cli._telemetry``); a run
without it spawns no sampling thread.  Usable as a context manager.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional

from .metrics import MetricsRegistry

#: Default sampling period.  Coarse enough that a sample costs a few
#: /proc reads per tick, fine enough to catch epoch-scale phases.
DEFAULT_INTERVAL_S = 0.05

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _rss_bytes() -> float:
    """Resident set size of this process, in bytes (0.0 if unknown)."""
    try:
        with open("/proc/self/statm") as handle:
            return float(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        # ru_maxrss is the *peak*, in KiB on Linux — a weaker signal but
        # better than nothing on platforms without /proc.
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024.0
    except (ImportError, OSError, ValueError):
        return 0.0


def _num_threads() -> float:
    """OS-level thread count (falls back to Python's view)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return float(line.split()[1])
    except (OSError, IndexError, ValueError):
        pass
    return float(threading.active_count())


def _cpu_seconds() -> float:
    """User + system CPU seconds consumed by this process."""
    times = os.times()
    return times.user + times.system


class ResourceSampler:
    """Daemon-thread process sampler publishing ``proc.*`` metrics."""

    def __init__(
        self,
        registry: MetricsRegistry,
        interval_s: float = DEFAULT_INTERVAL_S,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.registry = registry
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_cpu = _cpu_seconds()
        self._last_wall = time.perf_counter()
        # The first sample after construction/start has no meaningful
        # interval to differentiate over — its cpu_percent would be the
        # delta against a near-zero (or arbitrarily stale) baseline.
        # It primes the baseline instead and publishes no percent.
        self._primed = False

    # ------------------------------------------------------------------
    def sample_once(self) -> Dict[str, float]:
        """Take one sample, publish it, and return the raw values.

        The first sample after init/:meth:`start` omits ``cpu_percent``
        (both from the returned dict and the registry): there is no
        prior *sample* to delta against, so the value would be garbage
        noise amplified by a tiny wall interval.
        """
        now = time.perf_counter()
        cpu = _cpu_seconds()
        wall_delta = now - self._last_wall
        cpu_percent = (
            100.0 * (cpu - self._last_cpu) / wall_delta if wall_delta > 0 else 0.0
        )
        primed = self._primed
        self._primed = True
        self._last_cpu = cpu
        self._last_wall = now
        sample = {
            "rss_bytes": _rss_bytes(),
            "cpu_seconds": cpu,
            "num_threads": _num_threads(),
        }
        if primed:
            sample["cpu_percent"] = cpu_percent
        registry = self.registry
        registry.set_gauge("proc.rss_bytes", sample["rss_bytes"])
        registry.set_gauge("proc.cpu_seconds", sample["cpu_seconds"])
        registry.set_gauge("proc.num_threads", sample["num_threads"])
        registry.observe("proc.rss_bytes.samples", sample["rss_bytes"])
        if primed:
            registry.set_gauge("proc.cpu_percent", cpu_percent)
            registry.observe("proc.cpu_percent.samples", cpu_percent)
        registry.inc("proc.samples")
        return sample

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    # ------------------------------------------------------------------
    def start(self) -> "ResourceSampler":
        """Spawn the daemon sampling thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._last_cpu = _cpu_seconds()
            self._last_wall = time.perf_counter()
            self._primed = False
            self._thread = threading.Thread(
                target=self._run, name="repro-resource-sampler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take one final sample (the run's close)."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
            self.sample_once()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

