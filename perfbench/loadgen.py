"""The clients of the serve workloads: closed loop and open loop.

Both send single-vertex ``POST /v1/predict`` classify queries from
``PARALLELISM`` threads, each with its own connection and one request
outstanding.  A reply other than 200 and a socket error (status 0) are
failed requests.

* **Closed loop** -- a client sends its next request when the previous
  reply arrives, so a slow server receives less load.  It measures
  capacity: replies per second.
* **Open loop** -- requests are due on a Poisson schedule fixed before
  the phase starts and are shared out to the threads in turn.  Latency
  runs from the time a request was *due*, so the wait a stall imposes
  on the requests behind it is counted; ``sent - due`` is how late the
  generator ran.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from .common import PARALLELISM

TIMEOUT_S = 10.0
Row = Dict[str, Any]


class Client:
    """One connection.  The server speaks HTTP/1.0 and closes after each
    reply; ``http.client`` reconnects on the next request."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)

    def post(self, vertices: Sequence[int]) -> Tuple[int, bytes]:
        body = json.dumps({"vertices": [int(v) for v in vertices]})
        try:
            self.conn.request(
                "POST", "/v1/predict", body, {"Content-Type": "application/json"}
            )
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            return 0, b""

    def close(self) -> None:
        self.conn.close()


def _run_threads(
    target: Callable[[int, List[Row]], None], count: int = PARALLELISM
) -> List[Row]:
    rows: List[List[Row]] = [[] for _ in range(count)]
    threads = [
        threading.Thread(target=target, args=(index, rows[index]))
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [row for part in rows for row in part]


def closed_loop(port: int, streams: Sequence[np.ndarray], seconds: float) -> List[Row]:
    """One client per stream, each walking its own until ``seconds`` are up."""
    deadline = time.perf_counter() + seconds

    def client_loop(index: int, rows: List[Row]) -> None:
        client = Client(port)
        for vertex in streams[index]:
            sent = time.perf_counter()
            if sent >= deadline:
                break
            status, _ = client.post([vertex])
            rows.append({"client": index, "vertex": int(vertex), "sent": sent,
                         "done": time.perf_counter(), "status": status})
        client.close()

    return _run_threads(client_loop, len(streams))


def open_loop(
    port: int, vertices: np.ndarray, rate: float, seconds: float,
    rng: np.random.Generator,
) -> List[Row]:
    """Poisson arrivals at ``rate`` per second for ``seconds``."""
    due = np.cumsum(rng.exponential(1.0 / rate, size=len(vertices)))
    count = int(np.searchsorted(due, seconds))
    start = time.perf_counter() + 0.05

    def sender(index: int, rows: List[Row]) -> None:
        client = Client(port)
        for i in range(index, count, PARALLELISM):
            due_at = start + float(due[i])
            wait = due_at - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, _ = client.post([vertices[i]])
            rows.append({"vertex": int(vertices[i]), "due": due_at, "sent": sent,
                         "done": time.perf_counter(), "status": status})
        client.close()

    return _run_threads(sender)


def in_process(service, vertices: np.ndarray, seconds: float) -> List[Row]:
    """One caller of ``InferenceService.query`` with no HTTP in between."""
    rows: List[Row] = []
    deadline = time.perf_counter() + seconds
    for vertex in vertices:
        sent = time.perf_counter()
        if sent >= deadline:
            break
        reply = service.query([int(vertex)])
        rows.append({"vertex": int(vertex), "sent": sent,
                     "done": time.perf_counter(), "status": 200,
                     "cached": reply["cached"]})
    return rows
