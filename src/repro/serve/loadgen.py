"""Load generator: open-loop arrivals + closed-loop concurrency sweep.

The client side of the serving benchmark.  Two regimes, picked by
``rate``:

* **open loop** (``rate`` in requests/s) — arrivals follow a Poisson
  process (exponential inter-arrival gaps) and are dispatched on a
  thread pool *regardless of completions*, the regime that exposes
  queueing collapse: when the server can't keep up, latency grows
  without bound instead of the client politely slowing down.  When the
  pool is saturated the measured rate degrades toward closed-loop — the
  result reports both offered and achieved rates so the difference is
  visible.
* **closed loop** (``rate=None``) — ``concurrency`` workers each keep
  exactly one request outstanding, the regime for peak-throughput
  measurement.

Either way each worker thread keeps one HTTP/1.1 connection open for
the whole run, so a request is timed without a TCP handshake.

Latency lands client-side in a private
:class:`~repro.obs.metrics.Histogram` (the server's view excludes
network + HTTP parse time; this one is end-to-end), and the
:class:`LoadgenResult` carries qps + p50/p95/p99.
"""

from __future__ import annotations

import http.client
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence
from urllib.parse import urlsplit

import numpy as np

from ..obs.metrics import Histogram
from ..obs.report import write_json


@dataclass
class LoadgenResult:
    """One load-generation run's client-side measurements."""

    url: str
    mode: str
    concurrency: int
    offered_rate: Optional[float]  # requests/s target (None = closed loop)
    duration_s: float
    requests: int
    errors: int
    status_counts: Dict[int, int] = field(default_factory=dict)
    latency: Histogram = field(default_factory=Histogram)

    @property
    def qps(self) -> float:
        return self.requests / self.duration_s if self.duration_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "url": self.url,
            "mode": self.mode,
            "concurrency": self.concurrency,
            "offered_rate": self.offered_rate,
            "duration_s": self.duration_s,
            "requests": self.requests,
            "errors": self.errors,
            "status_counts": {str(k): v for k, v in
                              sorted(self.status_counts.items())},
            "serve.qps": self.qps,
            "serve.latency_p50_s": self.latency.percentile(50.0),
            "serve.latency_p95_s": self.latency.percentile(95.0),
            "serve.latency_p99_s": self.latency.percentile(99.0),
            "serve.error_fraction": (
                self.errors / self.requests if self.requests else 0.0
            ),
        }

    def render(self) -> str:
        lines = [
            f"loadgen {self.url} mode={self.mode} "
            + (f"open-loop {self.offered_rate:g} req/s"
               if self.offered_rate else
               f"closed-loop x{self.concurrency}")
        ]
        lines.append(
            f"  {self.requests} requests in {self.duration_s:.2f}s "
            f"= {self.qps:.1f} qps, {self.errors} error(s)"
        )
        lines.append(
            "  latency p50 {:.2f} ms  p95 {:.2f} ms  p99 {:.2f} ms  "
            "max {:.2f} ms".format(
                self.latency.percentile(50.0) * 1e3,
                self.latency.percentile(95.0) * 1e3,
                self.latency.percentile(99.0) * 1e3,
                self.latency.percentile(100.0) * 1e3,
            )
        )
        if self.status_counts:
            counts = "  ".join(
                f"{status}:{count}"
                for status, count in sorted(self.status_counts.items())
            )
            lines.append(f"  status  {counts}")
        return "\n".join(lines)


def _one_request(
    conn: http.client.HTTPConnection,
    target: str,
    result: LoadgenResult,
    lock: threading.Lock,
) -> None:
    start = time.perf_counter()
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        response.read()
        status = response.status
    except (OSError, http.client.HTTPException):
        conn.close()  # ``http.client`` reconnects on the next request
        status = 0  # connection-level failure
    elapsed = time.perf_counter() - start
    with lock:
        result.requests += 1
        result.status_counts[status] = result.status_counts.get(status, 0) + 1
        if status != 200:
            result.errors += 1
    result.latency.observe(elapsed)  # Histogram carries its own lock


def run_loadgen(
    url: str,
    duration_s: float = 5.0,
    rate: Optional[float] = None,
    concurrency: int = 4,
    num_vertices: int = 1,
    mode: str = "classify",
    seed: int = 0,
    timeout_s: float = 10.0,
) -> LoadgenResult:
    """Drive a serving endpoint for ``duration_s``; see module docstring.

    ``num_vertices`` is the id range queried — vertex ids are sampled
    uniformly from ``[0, num_vertices)``, so 1 hammers a single (soon
    cached) vertex and a large range defeats the cache.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    rng = np.random.default_rng(seed)
    result = LoadgenResult(
        url=url, mode=mode, concurrency=concurrency,
        offered_rate=rate, duration_s=duration_s,
        requests=0, errors=0,
    )
    lock = threading.Lock()
    parts = urlsplit(url)
    target = f"{parts.path.rstrip('/')}/v1/predict?mode={mode}&vertex="

    def connect() -> http.client.HTTPConnection:
        """One keep-alive connection; each worker thread owns its own."""
        return http.client.HTTPConnection(parts.netloc, timeout=timeout_s)

    deadline = time.monotonic() + duration_s
    if rate is not None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        local = threading.local()
        connections: List[http.client.HTTPConnection] = []

        def connect_worker() -> None:  # once per pool thread
            local.conn = connect()
            connections.append(local.conn)

        def send(vertex: int) -> None:
            _one_request(local.conn, target + str(vertex), result, lock)

        with ThreadPoolExecutor(concurrency, initializer=connect_worker) as pool:
            next_arrival = time.monotonic()
            while True:
                now = time.monotonic()
                if now >= deadline:
                    break
                if now < next_arrival:
                    time.sleep(min(next_arrival - now, deadline - now))
                    continue
                pool.submit(send, int(rng.integers(0, num_vertices)))
                next_arrival += float(rng.exponential(1.0 / rate))
        for conn in connections:
            conn.close()
    else:
        def worker() -> None:
            conn = connect()
            while time.monotonic() < deadline:
                vertex = int(rng.integers(0, num_vertices))
                _one_request(conn, target + str(vertex), result, lock)
            conn.close()

        threads = [
            threading.Thread(target=worker, name=f"repro-loadgen-{i}")
            for i in range(concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return result


def concurrency_sweep(
    url: str,
    levels: Sequence[int],
    duration_s: float = 3.0,
    num_vertices: int = 1,
    mode: str = "classify",
    seed: int = 0,
    timeout_s: float = 10.0,
) -> List[LoadgenResult]:
    """Closed-loop qps/latency at each concurrency level, in order."""
    return [
        run_loadgen(
            url,
            duration_s=duration_s,
            rate=None,
            concurrency=level,
            num_vertices=num_vertices,
            mode=mode,
            seed=seed + level,
            timeout_s=timeout_s,
        )
        for level in levels
    ]


def write_results(
    path: str, results: Sequence[LoadgenResult], manifest: Dict[str, Any]
) -> None:
    """Write ``{manifest, results}``: the run's manifest, then one row
    per result."""
    write_json(path, {
        "manifest": manifest, "results": [r.to_dict() for r in results],
    })
