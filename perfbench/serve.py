"""``serve-cold`` and ``serve-hot``: the inference service behind HTTP.

``InferenceService`` with its defaults (cache 4,096 entries, batches of
at most 32, 2 ms batching wait, queue of 128) behind ``ServingServer``
on the products twin at scale 10 (40,960 vertices), answering
single-vertex classify queries.  The two workloads differ only in which
vertices are asked for:

* ``serve-cold`` draws them uniformly, so the cache holds a tenth of
  them: neighbourhood assembly, the block forward and cache writes and
  evictions do the work and the cache read path is nearly idle.
* ``serve-hot`` draws them Zipf(1.3) over a seeded permutation, so
  about three quarters hit the cache: HTTP parse and serialise, cache
  reads and the hand-off to the batcher do the work and the GNN forward
  is a minority.  A kernel win should show nothing here and a transport
  or cache win everything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.serve import InferenceService, ServingServer
from repro.serve import server as server_module

from . import loadgen
from .common import (
    PARALLELISM, Inputs, Run, fresh_graph, make_inputs, median,
    peak_rss_mb, percentile, student,
)
from .trace import Recorder

SCALE = 10.0
#: Sequential requests that end set-up, per unit of twin scale (200 on
#: the 10x twin).
SETUP_REQUESTS_PER_SCALE = 20
#: Closed-loop requests answered before anything is timed, per unit of
#: twin scale (500 on the 10x twin).  Filling the cache would take
#: ~4,500 misses (16 s), so in ``serve-cold`` it is still filling while
#: measured; ``serve.cache_hit_rate`` says how far.
WARMUP_REQUESTS_PER_SCALE = 50
CHECKED_VERTICES = 64
#: Most requests per second one client can be sent; sizes the streams.
MAX_CLIENT_RATE = 2_000
#: The untraced run is one open loop.  Traced run: closed loop (plain
#: and traced windows taking turns), open loop, then one client over
#: HTTP and one in process.
TRACED_SHARES = {"closed": 0.4, "open": 0.3, "single": 0.15}
CLOSED_ROUNDS = 4
RATE_WINDOW_S = 0.5


@dataclass(frozen=True)
class Mix:
    zipf: Optional[float]  # None draws uniformly
    #: Requests per second, about a sixth of closed-loop capacity: low
    #: enough that the median request waits for no other, so that a slow
    #: minute of the machine is not amplified by queueing.
    open_rate: float
    latency_limit_s: float


MIXES = {
    "serve-cold": Mix(zipf=None, open_rate=40.0, latency_limit_s=0.100),
    "serve-hot": Mix(zipf=1.3, open_rate=100.0, latency_limit_s=0.050),
}


class Stream:
    """The seeded sequence of queried vertices."""

    def __init__(self, seed: int, num_vertices: int, zipf: Optional[float]) -> None:
        self.rng = np.random.default_rng(seed)
        self.n = num_vertices
        self.zipf = zipf
        self.order = self.rng.permutation(num_vertices)

    def take(self, count: int) -> np.ndarray:
        if self.zipf is None:
            return self.rng.integers(0, self.n, size=count)
        ranks = np.empty(0, dtype=np.int64)
        while len(ranks) < count:
            drawn = self.rng.zipf(self.zipf, size=count)
            ranks = np.concatenate([ranks, drawn[drawn <= self.n]])
        return self.order[ranks[:count] - 1]


def set_up(inputs: Inputs, model, vertices: np.ndarray):
    """Inputs ready -> service built, server listening, first requests
    answered one at a time."""
    service = InferenceService(fresh_graph(inputs.graph), inputs.features, model)
    server = ServingServer(service, port=0).start()
    return server, loadgen.closed_loop(server.port, [vertices], float("inf"))


def install(recorder: Recorder, service: InferenceService) -> None:
    recorder.wrap(service, "query", "serve.query")
    recorder.wrap(service.batcher, "submit", "serve.submit")
    recorder.wrap(service.cache, "get", "serve.cache_get")
    recorder.wrap(service.cache, "put", "serve.cache_put")
    recorder.wrap(
        server_module, "assemble_batch", "nn.assemble",
        work=lambda batch: batch.total_sampled_edges,
    )
    recorder.wrap(server_module, "block_forward", "nn.block_forward")


def record(run: Run, phase: str, rows: List[loadgen.Row]) -> List[loadgen.Row]:
    for row in rows:
        run.sample("request", phase=phase, **row)
    run.count(len(rows), sum(row["status"] != 200 for row in rows))
    return rows


def window_rates(rows: List[loadgen.Row], seconds: float) -> List[float]:
    """Successful replies per second in each stretch of about
    ``RATE_WINDOW_S`` of a closed-loop phase.  The phase's rate is the
    median of these: the typical rate, which the rare query for a hub
    vertex (whose two-hop neighbourhood is most of the graph and stalls
    every client for a few hundred ms) does not move."""
    start = min(row["sent"] for row in rows)
    counts = [0] * max(1, round(seconds / RATE_WINDOW_S))
    width = seconds / len(counts)
    for row in rows:
        index = int((row["done"] - start) / width)
        if row["status"] == 200 and index < len(counts):
            counts[index] += 1
    return [count / width for count in counts]


def latencies(rows: List[loadgen.Row], since: str = "sent") -> List[float]:
    return [row["done"] - row[since] for row in rows if row["status"] == 200]


def counters(service: InferenceService) -> Dict[str, float]:
    stats = service.stats()
    return {
        **{k: stats["cache"][k] for k in ("hits", "misses", "evictions")},
        **{k: stats["batcher"][k] for k in ("batches", "submitted", "rejected")},
    }


def measure(run: Run, seconds: float, scale: float = SCALE) -> None:
    mix = MIXES[run.workload]
    inputs = make_inputs(run.seed, scale)
    m = run.metrics
    m["graphs.generate_s"] = inputs.generate_s
    model = student(run.seed)
    stream = Stream(run.seed, inputs.graph.num_vertices, mix.zipf)

    def build() -> ServingServer:
        server, rows = set_up(
            inputs, model, stream.take(int(SETUP_REQUESTS_PER_SCALE * scale))
        )
        record(run, "setup", rows)
        return server

    setups, server = run.timed_setups(build, ServingServer.stop)
    try:
        record(run, "warmup", loadgen.closed_loop(
            server.port,
            [stream.take(int(WARMUP_REQUESTS_PER_SCALE * scale) // PARALLELISM)
             for _ in range(PARALLELISM)],
            float("inf"),
        ))
        if run.trace:
            traced_phases(run, mix, stream, server, seconds)
        else:
            opened = open_phase(run, mix, stream, server, seconds)
            m["setup_s"] = median(setups)
            m["latency_p50_s"] = median(latencies(opened, since="due"))
        check_classes(run, inputs, model, server)
    finally:
        server.stop()
    if not run.trace:
        m["peak_rss_mb"] = peak_rss_mb()


def client_streams(stream: Stream, seconds: float, clients: int = PARALLELISM):
    return [stream.take(int(seconds * MAX_CLIENT_RATE) + 1) for _ in range(clients)]


def open_phase(run: Run, mix: Mix, stream: Stream, server, seconds: float):
    vertices = stream.take(int(seconds * mix.open_rate * 2) + 100)
    return record(run, "open", loadgen.open_loop(
        server.port, vertices, mix.open_rate, seconds, stream.rng
    ))


def check_classes(run: Run, inputs: Inputs, model, server) -> None:
    """Served classes equal the full-batch argmax.  A vertex whose top
    two logits are closer than float32 noise may go either way."""
    logits = model.predict(inputs.graph, inputs.features)
    vertices = np.random.default_rng(run.seed).choice(
        inputs.graph.num_vertices, size=CHECKED_VERTICES, replace=False
    )
    client = loadgen.Client(server.port)
    wrong = []
    for vertex in vertices:
        status, body = client.post([vertex])
        served = json.loads(body)["classes"][0] if status == 200 else None
        top = np.sort(logits[vertex])[-2:]
        if served != int(logits[vertex].argmax()) and top[1] - top[0] > 1e-3:
            wrong.append((int(vertex), served))
    client.close()
    run.check(
        f"classes of {CHECKED_VERTICES} vertices equal model.predict's argmax",
        not wrong, f"wrong: {wrong}",
    )


def request_paths(recorder: Recorder):
    """What one sequential in-process caller's requests were made of.

    Returns the queue overhead of each miss (hand-off to the batcher
    thread and its 2 ms wait for company, plus the hand-off back), and
    per request the time inside named calls and the whole latency, each
    replaced by the median of its kind (hit or miss) so that a stall of
    the machine does not pass for program time.  With one caller the
    k-th submit, assemble, forward and put belong to the k-th miss.
    """
    spans = recorder.named()
    gets = {span.parent: span.duration for span in spans["serve.cache_get"]}
    queries = {span.id: span for span in spans["serve.query"]}
    waits, named_miss, whole_miss = [], [], []
    for submit, assemble, forward, put in zip(
        spans["serve.submit"], spans["nn.assemble"], spans["nn.block_forward"],
        spans["serve.cache_put"],
    ):
        query = queries.pop(submit.parent)
        wait = (assemble.start - submit.start) + (query.end - put.end)
        waits.append(wait)
        named_miss.append(
            gets[query.id] + wait + assemble.duration + forward.duration + put.duration
        )
        whole_miss.append(query.duration)
    named_hit = [gets[query.id] for query in queries.values()]
    whole_hit = [query.duration for query in queries.values()]
    named = [median(named_miss)] * len(named_miss) + [median(named_hit)] * len(named_hit)
    whole = [median(whole_miss)] * len(whole_miss) + [median(whole_hit)] * len(whole_hit)
    return waits, named, whole


def traced_phases(run: Run, mix: Mix, stream: Stream, server, seconds: float) -> None:
    m = run.metrics
    service = server.service
    window = seconds * TRACED_SHARES["closed"] / (2 * CLOSED_ROUNDS)
    closed = Recorder()
    replies: Dict[str, List[float]] = {"plain": [], "traced": []}
    rates: List[float] = []
    delta = dict.fromkeys(counters(service), 0.0)
    for index in range(CLOSED_ROUNDS):
        # Which kind goes first changes every round, so that drift over
        # the phase (the cache fills, the machine slows) favours neither.
        for kind in sorted(replies, reverse=bool(index % 2)):
            before = counters(service)
            if kind == "traced":
                install(closed, service)
            try:
                got = record(run, "closed-" + kind, loadgen.closed_loop(
                    server.port, client_streams(stream, window), window
                ))
            finally:
                closed.restore()
            replies[kind] += latencies(got)
            if kind == "plain":
                rates += window_rates(got, window)
                for key, value in counters(service).items():
                    delta[key] += value - before[key]
    m["serve.cache_hit_rate"] = delta["hits"] / (delta["hits"] + delta["misses"])
    m["serve.cache_evictions"] = delta["evictions"]
    m["serve.batches"] = delta["batches"]
    m["serve.requests_per_batch"] = delta["submitted"] / max(1.0, delta["batches"])
    m["serve.rejected"] = delta["rejected"]
    m["serve.closed_rps"] = median(rates)
    # By the median reply, which a hub query does not move either.
    m["trace.overhead_frac"] = median(replies["traced"]) / median(replies["plain"]) - 1.0

    spans = closed.named()

    def typical(name: str) -> float:
        return median([span.duration for span in spans[name]])

    m["nn.assemble_s"] = typical("nn.assemble")
    m["nn.block_forward_s"] = typical("nn.block_forward")
    m["nn.assembled_edges_per_batch"] = median(
        [span.work for span in spans["nn.assemble"]]
    )
    m["serve.cache_get_s"] = typical("serve.cache_get")
    m["serve.cache_put_s"] = typical("serve.cache_put")
    # The sum, not the median times the count: the few batches that hold
    # a hub vertex are real work and most of the time.
    m["serve.forward_busy_frac"] = sum(
        span.duration for span in spans["nn.block_forward"]
    ) / (window * CLOSED_ROUNDS)

    opened = open_phase(run, mix, stream, server, seconds * TRACED_SHARES["open"])
    since_due = latencies(opened, since="due")
    m["serve.latency_p95_s"] = percentile(since_due, 95.0)
    m["serve.latency_p99_s"] = percentile(since_due, 99.0)
    m["serve.sched_lag_p95_s"] = percentile(
        [row["sent"] - row["due"] for row in opened], 95.0
    )
    late = sum(
        row["status"] != 200 or row["done"] - row["due"] > mix.latency_limit_s
        for row in opened
    )
    m["serve.slo_miss_frac"] = late / len(opened)

    # One caller at a time, first over HTTP then straight into the
    # service, on consecutive stretches of the same stream: what HTTP
    # adds is the difference.
    single = seconds * TRACED_SHARES["single"]
    over_http = record(run, "single-http", loadgen.closed_loop(
        server.port, client_streams(stream, single, clients=1), single
    ))
    inproc = Recorder()
    install(inproc, service)
    try:
        direct = record(run, "single-inproc", loadgen.in_process(
            service, client_streams(stream, single, clients=1)[0], single
        ))
    finally:
        inproc.restore()
    transport = median(latencies(over_http)) - median(latencies(direct))
    m["serve.inproc_p50_s"] = median(latencies(direct))
    m["serve.transport_p50_s"] = transport
    waits, named, whole = request_paths(inproc)
    m["serve.queue_overhead_s"] = median(waits)
    m["serve.request_unaccounted_frac"] = 1.0 - (
        (transport + float(np.mean(named))) / (transport + float(np.mean(whole)))
    )
    run.write_trace(closed, phase="closed")
    run.write_trace(inproc, phase="single-inproc")
