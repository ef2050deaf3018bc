"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``train`` — full-batch training demo on a twin (every kernel pass and
  dense layer phase runs one output slice per core; ``--shards N
  --backend {serial,process}`` trains partition-parallel;
  ``--trace FILE`` / ``--json FILE`` emit run telemetry; ``--events
  FILE`` streams per-epoch JSONL events, ``--serve-metrics PORT``
  exposes the live registry (with sampled process RSS/CPU) over HTTP,
  ``--rules FILE`` evaluates declarative rules each epoch and
  ``--health`` adds the default numerics-guard rules).
* ``bench-sharded`` — scaling-efficiency benchmark of the sharded
  trainer.
* ``profile`` — trace one tiny synthetic training run end to end and
  print the span tree, counters, environment, and bottleneck
  attribution.
* ``top`` — live terminal view of an in-progress run: tails the
  epoch-event JSONL, optionally scrapes a ``--serve-metrics`` endpoint,
  and gates on SLO rules (``--check``).
* ``serve`` — train briefly, then answer per-vertex / per-batch
  classification and embedding queries over HTTP (classify answers
  from a logits table one full-graph forward fills at start-up;
  embedding queries go through the request batcher; admission control
  bounds the queue; every request carries a trace id and the
  ``serve.*`` metric families feed ``--serve-metrics`` / ``repro top``
  / the built-in serving SLO rules).
* ``loadgen`` — drive a running serving endpoint: open-loop Poisson
  arrivals (``--rate``) or closed-loop concurrency, with client-side
  latency percentiles.
* ``experiment`` — run one named paper artifact, a key of
  :data:`repro.bench.figures.PLAN` (fig2 ... sec732): the Table-3 twin
  statistics, Figure 11's speedup columns, Table 4 and the rest, at
  ``--scale`` (the simulated ones at the fixed fraction of it the
  figures module documents).

Global flags: ``-v/--verbose`` (repeatable), ``-q/--quiet``, and
``--version``.  Every flag that names a file the command writes is
checked when the arguments are parsed: a path whose directory does not
exist is a usage error (exit 2) before any work starts, and so is an
unknown flag, which is named even where an optional positional follows.

``train``, ``bench-sharded`` and ``serve`` share one twin: the
:func:`_add_twin_flags` group (each command keeps its own defaults) and
the :func:`_twin` / :func:`_model` builders.  Choice lists are read from
the modules that own them; ``tests/test_cli_matrix.py`` runs every
choice and switch the parser declares.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys
import time
from typing import List, Optional

import numpy as np

from . import graphs, lanes, obs
from .bench import Experiment, figures
from .kernels import BasicKernel
from .nn import Adam, Trainer, build_model
from .nn.functional import cross_entropy
from .parallel import SHARD_BACKENDS, ShardedTrainer, ShardWorkerDied
from .perf import CostModel

logger = logging.getLogger(__name__)


def _configure_logging(verbosity: int) -> None:
    """Map -v/-q counts to the ``repro`` logger level.

    Default WARNING; ``-v`` INFO; ``-vv`` DEBUG; ``-q`` ERROR.
    """
    levels = {2: logging.DEBUG, 1: logging.INFO, 0: logging.WARNING}
    root = logging.getLogger("repro")
    root.setLevel(levels.get(min(verbosity, 2), logging.ERROR))
    if not root.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        root.addHandler(handler)


class _Exit(Exception):
    """A command stopped after printing why on stderr; :func:`main`
    returns ``code`` (1 for an output file that could not be written,
    2 for a rules file that could not be loaded)."""

    def __init__(self, code: int) -> None:
        super().__init__(code)
        self.code = code


def _write_outputs(outputs) -> bool:
    """Write each ``(path, write)`` pair whose path is set, on its own.

    ``write()`` writes the file and returns the line to print.  An
    ``OSError`` (a full disk, a directory removed mid-run) is one
    ``error: could not write PATH: REASON`` line on stderr, and the
    remaining outputs are still written.  Returns whether all succeeded.
    """
    ok = True
    for path, write in outputs:
        if not path:
            continue
        try:
            print(write())
        except OSError as error:
            reason = error.strerror or error
            print(f"error: could not write {path}: {reason}", file=sys.stderr)
            ok = False
    return ok


@contextlib.contextmanager
def _telemetry(
    args: argparse.Namespace,
    meta: dict,
    extras: Optional[dict] = None,
    rules=None,
    always: bool = False,
):
    """Run telemetry for the block, on wherever something reads it.

    A live registry for a rule engine (``rules``: ``--rules``,
    ``--health`` or serve's defaults), ``--trace``, ``--json`` or
    ``--serve-metrics``; a live tracer (yielded, else None) only for
    ``--trace``, ``--json`` and ``always`` (``repro profile``), since
    spans grow without bound.  Only ``--serve-metrics PORT`` starts the
    resource sampler (``proc.*``) and an HTTP server of the registry
    (``/metrics``, ``/snapshot.json``; port 0 is ephemeral).

    ``extras`` may be filled *inside* the block (keys ``events``,
    ``sparsity``, ``alerts``) for the run report.  On exit the trace
    and/or report are written; if either cannot be, the block raises
    ``_Exit(1)`` once the other is written.
    """
    trace_path = getattr(args, "trace", None)
    json_path = getattr(args, "json", None)
    serve_port = getattr(args, "serve_metrics", None)
    traced = bool(always or trace_path or json_path)
    if not (traced or rules is not None or serve_port is not None):
        yield None
        return
    tracer = obs.Tracer() if traced else obs.NULL_TRACER
    metrics = obs.MetricsRegistry()
    obs.set_tracer(tracer)
    obs.set_metrics(metrics)
    try:
        with contextlib.ExitStack() as stack:
            if serve_port is not None:
                # A live watcher's first questions are proc.* gauges.
                stack.enter_context(obs.ResourceSampler(metrics))
                server = obs.MetricsServer(metrics, port=serve_port)
                stack.enter_context(server)
                print(
                    f"serving live metrics on {server.url} "
                    "(/metrics, /snapshot.json)"
                )
            yield tracer if traced else None
    finally:
        obs.disable()
        extras = extras or {}

        def write_trace() -> str:
            count = tracer.export_jsonl(trace_path)
            return f"wrote {count} spans to {trace_path}"

        def write_report() -> str:
            report = obs.build_run_report(
                tracer, metrics, meta=meta, events=extras.get("events"),
                sparsity=extras.get("sparsity"), alerts=extras.get("alerts"),
            )
            obs.write_json(json_path, report)
            return f"wrote run report to {json_path}"

        written = _write_outputs(
            [(trace_path, write_trace), (json_path, write_report)]
        )
    if not written:
        raise _Exit(1)


def _meta(args: argparse.Namespace, *fields: str, **extra) -> dict:
    """The run report's ``meta``: the command, the named ``args``
    fields, then ``extra``."""
    return {
        "command": args.command,
        **{name: getattr(args, name) for name in fields},
        **extra,
    }


def _twin(args: argparse.Namespace) -> tuple:
    """``(graph, features, labels)``: the ``dataset`` twin at
    ``--scale``, its synthetic ``--features`` and uniform labels over
    ``--classes``, all drawn from ``--seed``."""
    graph = graphs.load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    features = graphs.synthetic_features(graph, args.features, seed=args.seed)
    labels = np.random.default_rng(args.seed).integers(
        0, args.classes, graph.num_vertices
    )
    return graph, features, labels


def _model(args: argparse.Namespace):
    """A fresh ``--model`` (GCN where the command has no such flag) of
    the twin flags' widths and depth, initialised from ``--seed``."""
    return build_model(
        getattr(args, "model", "gcn"), args.features, args.hidden,
        args.classes, num_layers=args.layers,
        dropout=getattr(args, "dropout", 0.0), seed=args.seed,
    )


def _load_rules(path: Optional[str], defaults=()):
    """A ``RuleEngine`` over ``defaults`` plus the rules in the file at
    ``path``, or None when there are neither.  A file that cannot be
    read or parsed, or whose rule names clash, is one ``PATH: error``
    line on stderr and exit 2."""
    if not (path or defaults):
        return None
    try:
        return obs.RuleEngine(
            list(defaults) + (obs.load_rules(path) if path else [])
        )
    except (OSError, obs.RuleParseError) as error:
        print(f"{path}: {error}", file=sys.stderr)
        raise _Exit(2) from None


def _number(name: str, kind, ok, what: str):
    """An argparse ``type=`` that parses ``kind`` and refuses a value
    ``ok`` rejects with "must be WHAT"; ``name`` is what argparse calls
    it when ``kind`` itself cannot parse the string."""

    def parse(value: str):
        parsed = kind(value)
        if not ok(parsed):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value!r}")
        return parsed

    parse.__name__ = name
    return parse


_positive_int = _number("_positive_int", int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _number("_non_negative_int", int, lambda v: v >= 0, ">= 0")
_positive_float = _number(
    "_positive_float", float, lambda v: 0 < v < math.inf,
    "a positive, finite number")
_non_negative_float = _number(
    "_non_negative_float", float, lambda v: 0 <= v < math.inf,
    "a non-negative, finite number")
_port = _number("_port", int, lambda v: 0 <= v <= 65535, "a port in 0..65535")
_dropout = _number("_dropout", float, lambda v: 0 <= v < 1, "in [0, 1)")


def _output_path(value: str) -> str:
    """A file the command will write: its directory must already exist,
    so a typo fails at parse time instead of after the run it records."""
    parent = os.path.dirname(os.path.abspath(value))
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"directory {parent!r} does not exist")
    return value


#: The flags :func:`_telemetry` reads, declared once; each command adds
#: the subset it accepts with :func:`_add_telemetry_flags`.
_TELEMETRY_FLAGS = {
    "--trace": dict(
        metavar="FILE", type=_output_path, help="write a JSONL span trace"
    ),
    "--json": dict(
        metavar="FILE", type=_output_path, help="write a run-report JSON"
    ),
    "--serve-metrics": dict(
        metavar="PORT", type=_port, default=None,
        help="serve the live metrics registry over HTTP for the run "
        "(GET /metrics Prometheus text, GET /snapshot.json deltas); "
        "0 binds an ephemeral port; also starts the resource sampler "
        "(proc.* metrics)",
    ),
}


def _add_telemetry_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_TELEMETRY_FLAGS[flag])


def _add_twin_flags(
    parser: argparse.ArgumentParser,
    scale: float,
    width: int,
    model: bool = True,
    optional_dataset: bool = True,
) -> None:
    """The flags :func:`_twin` and :func:`_model` read: ``dataset``,
    ``--scale``, ``--model`` (where the command offers a choice),
    ``--features`` / ``--hidden`` (both ``width``), ``--classes``,
    ``--layers``, ``--lr`` and ``--seed``."""
    optional = dict(nargs="?", default="products") if optional_dataset else {}
    parser.add_argument("dataset", choices=graphs.DATASET_NAMES, **optional)
    parser.add_argument("--scale", type=_positive_float, default=scale)
    if model:
        parser.add_argument("--model", choices=["gcn", "sage"], default="gcn")
    parser.add_argument("--features", type=_positive_int, default=width)
    parser.add_argument("--hidden", type=_positive_int, default=width)
    parser.add_argument("--classes", type=_positive_int, default=8)
    parser.add_argument("--layers", type=_positive_int, default=2)
    parser.add_argument("--lr", type=_positive_float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)


def _cmd_train(args: argparse.Namespace) -> int:
    # Trainer.fit(verbose=True) reports epochs through this logger at
    # INFO; raise it so `repro train` shows the lines without -v.
    logging.getLogger("repro.nn.training").setLevel(logging.INFO)

    graph, features, labels = _twin(args)
    model = _model(args)
    print(lanes.describe())
    if args.shards > 1:
        return _train_sharded(args, graph, features, labels, model)
    print("aggregation: basic kernel")
    meta = _meta(args, "dataset", "scale", "model", "epochs")
    rules = _load_rules(
        args.rules, obs.default_train_rules() if args.health else ()
    )
    if rules is not None:
        sources = ["the default training rules" if args.health else "", args.rules]
        print(
            f"slo: loaded {len(rules.rules)} rule(s) from "
            f"{' and '.join(filter(None, sources))}"
        )
    event_log = obs.EventLog(args.events, meta=meta) if args.events else None
    trainer = Trainer(
        model, Adam(model, lr=args.lr), profile_sparsity=True,
        aggregation_kernel=BasicKernel(), event_log=event_log, rules=rules,
    )
    extras: dict = {}
    status = 0
    try:
        with _telemetry(args, meta, extras=extras, rules=rules):
            try:
                trainer.fit(
                    graph, features, labels, epochs=args.epochs, verbose=True
                )
            finally:
                extras["events"] = event_log
                extras["sparsity"] = trainer.history.sparsity
                extras["alerts"] = rules
    except obs.FatalRuleError as error:
        print(f"\ntraining stopped: {error}", file=sys.stderr)
        status = 1
    finally:
        if event_log is not None:
            event_log.close()
            print(f"wrote {len(event_log)} epoch events to {args.events}")
    history = trainer.history
    if history.epochs:
        print("\nhidden-feature sparsity (Section 2.2):")
        print(history.sparsity.summary())
    if rules is not None:
        print(rules.summary())
    return status


def _sharded_trainer(args, graph, model, shards: int, backend: str):
    return ShardedTrainer(
        graph, model, Adam(model, lr=args.lr), num_shards=shards,
        partition_method=args.partition, backend=backend,
    )


def _train_sharded(args, graph, features, labels, model) -> int:
    """The ``--shards N`` path of ``repro train``: partition-parallel
    training on the sharded shared-memory trainer.  A ``/dev/shm`` too
    small for the bundle, or a shard worker that dies, is one ``error:``
    line on stderr and exit code 1."""
    backend = args.backend or "serial"
    args.partition = args.partition or "greedy"
    meta = _meta(
        args, "dataset", "scale", "model", "epochs", "shards", "partition",
        backend=backend,
    )
    trainer = _sharded_trainer(args, graph, model, args.shards, backend)
    try:
        with _telemetry(args, meta), trainer:
            trainer.fit(features, labels, epochs=0)  # partition + attach
            part = trainer.partition
            print(
                f"partition: {args.partition} x{args.shards} "
                f"(edge cut {part.edge_cut(graph)} = "
                f"{part.cut_fraction(graph):.1%}, "
                f"balance {part.balance:.3f}), "
                f"worker payload {max(trainer.setup_bytes)} B"
            )
            halo = sum(shard.num_halo for shard in trainer.shards)
            print(
                f"halo vertices: {halo} total "
                f"({halo / max(1, graph.num_vertices):.2f}x of |V|)"
            )
            for _ in range(args.epochs):
                result = trainer.train_epoch()
                print(
                    f"epoch {result.epoch:>3}  loss {result.loss:.4f}  "
                    f"train-acc {result.train_accuracy:.3f}  "
                    f"halo {trainer.last_halo_bytes / 2**20:.2f} MiB"
                )
    except (OSError, ShardWorkerDied) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_bench_sharded(args: argparse.Namespace) -> int:
    """Scaling-efficiency benchmark of the sharded trainer.

    Sweeps shard counts on a synthetic twin (``--scale 10`` ≈ 10× the
    usual dataset sizes), reporting epochs/s, parallel efficiency
    relative to the smallest swept count, and halo traffic.
    """
    print(f"generating {args.dataset} twin at scale {args.scale}x ...")
    graph, features, labels = _twin(args)
    exp = Experiment(
        "bench-sharded",
        f"sharded {args.partition}-partition training on {args.dataset} "
        f"{args.scale}x ({graph.num_vertices} vertices, "
        f"{graph.num_edges} edges; {args.backend} backend)",
    )
    meta = _meta(
        args, "dataset", "scale", "partition", "backend", "epochs",
        vertices=graph.num_vertices, edges=graph.num_edges,
        shards=list(args.shards),
    )
    base_rate: Optional[float] = None
    base_shards: Optional[int] = None
    with _telemetry(args, meta):
        for shards in args.shards:
            trainer = _sharded_trainer(
                args, graph, _model(args), shards, args.backend
            )
            with trainer:
                trainer.fit(features, labels, epochs=1)  # setup + warmup
                start = time.perf_counter()
                for _ in range(args.epochs):
                    loss = trainer.train_epoch().loss
                elapsed = time.perf_counter() - start
                epoch_s = elapsed / args.epochs
                rate = 1.0 / epoch_s
                halo_mb = trainer.last_halo_bytes / 2**20
                cut = trainer.partition.cut_fraction(graph)
                setup_max = max(trainer.setup_bytes)
            if base_rate is None:
                base_rate, base_shards = rate, shards
            efficiency = (rate / shards) / (base_rate / base_shards)
            exp.add(f"{shards} shards epoch time", epoch_s, unit="s")
            exp.add(f"{shards} shards throughput", rate, unit="epochs/s")
            exp.add(f"{shards} shards efficiency", efficiency, unit="x")
            exp.note(
                f"{shards} shards: cut {cut:.1%}, halo {halo_mb:.2f} MiB/epoch,"
                f" worker payload {setup_max} B, final loss {loss:.4f}"
            )
    print(exp.render())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Trace one tiny synthetic training run and print the telemetry."""
    graph = graphs.power_law_graph(
        args.vertices, args.degree, seed=args.seed, name="synthetic"
    )
    features = graphs.synthetic_features(
        graph, args.features, seed=args.seed, sparsity=0.5
    )
    labels = np.random.default_rng(args.seed).integers(
        0, args.classes, graph.num_vertices
    )
    model = build_model(
        "gcn", args.features, args.hidden, args.classes, seed=args.seed
    )
    trainer = Trainer(
        model, Adam(model, lr=0.01), aggregation_kernel=BasicKernel()
    )
    print(lanes.describe())

    meta = _meta(args, "vertices", "epochs")
    with _telemetry(args, meta, always=True) as tracer:
        history = trainer.fit(graph, features, labels, epochs=args.epochs)
        records = [
            span.to_record()
            for span in sorted(tracer.spans(), key=lambda s: s.span_id)
        ]
        print(
            f"profiled {args.epochs} epoch(s) on {graph.num_vertices} vertices, "
            f"basic kernel (final loss {history.final_loss:.4f})"
        )
        print("\n== span tree ==")
        print(obs.render_span_tree(records))
        print("\n== aggregation counters (all kernel spans) ==")
        for key, value in sorted(tracer.aggregate_counters("kernel.*").items()):
            print(f"  {key:<24} {value:g}")
        print("\n== environment ==")
        for key, value in obs.environment_info().items():
            print(f"  {key:<16} {value}")
        attribution = obs.attribute_run(
            records, cost_model=CostModel(graph), sparsity=0.5
        )
        print("\n== bottleneck attribution ==")
        print(attribution.render())
    return 0


def _resolve_events_path(path: Optional[str]) -> Optional[str]:
    """Map a ``repro top`` PATH operand onto an epoch-event file.

    A file path is used as-is (it may not exist yet — the tail waits for
    it).  A directory is searched for ``*events*.jsonl`` first, then any
    ``*.jsonl``, taking the most recently modified match.
    """
    import glob

    if path is None or not os.path.isdir(path):
        return path
    for pattern in ("*events*.jsonl", "*.jsonl"):
        matches = glob.glob(os.path.join(path, pattern))
        if matches:
            return max(matches, key=os.path.getmtime)
    return None


def _cmd_top(args: argparse.Namespace) -> int:
    """Live terminal view of a training run (events tail + metrics scrape)."""
    events_path = _resolve_events_path(args.path)
    if events_path is None and not args.metrics_url:
        print(
            f"top: no epoch-event JSONL found under {args.path!r} and no "
            "--metrics-url; nothing to watch",
            file=sys.stderr,
        )
        return 2
    rules = _load_rules(args.rules)
    if args.check and rules is None:
        print("top: --check needs --rules FILE", file=sys.stderr)
        return 2
    monitor = obs.LiveRunMonitor(
        events_path or "", metrics_url=args.metrics_url, rules=rules
    )
    if args.follow:
        monitor.follow(
            interval_s=1.0 if args.interval is None else args.interval,
            refresh_limit=args.refresh_limit,
        )
    else:  # the default: one poll, one frame
        monitor.poll()
        print(monitor.render())
    if args.check and not rules.ok:
        print(rules.summary(), file=sys.stderr)
        return 1
    return 0


def _build_serving_service(args) -> tuple:
    """Train a small model and wrap it in an InferenceService.

    Dataset twin + synthetic features/labels, a short training run (the
    service answers from whatever the model learned), then the serving
    pipeline, whose start-up forward fills the answer table.
    """
    from .serve import InferenceService

    graph, features, labels = _twin(args)
    model = _model(args)
    if args.epochs:
        print(
            f"training {args.model} x{args.layers} on {args.dataset} "
            f"{args.scale}x for {args.epochs} epoch(s) ..."
        )
        trainer = Trainer(
            model, Adam(model, lr=args.lr),
            aggregation_kernel=BasicKernel(),
        )
        trainer.fit(graph, features, labels, epochs=args.epochs)
    service = InferenceService(graph, features, model)
    table = service.cache.logits
    loss, _ = cross_entropy(table, labels)
    print(
        f"answer table: {table.shape[0]} x {table.shape[1]} logits, "
        f"loss {loss:.4f} on the training labels"
    )
    return graph, service


def _cmd_serve(args: argparse.Namespace) -> int:
    """Train briefly, then answer inference queries over HTTP."""
    import signal

    from .serve import ServingServer

    defaults = () if args.rules or args.no_rules else obs.default_serve_rules()
    rules = _load_rules(args.rules, defaults)
    if args.check and rules is None:
        print(
            "serve: --check needs rules, and --no-rules without --rules "
            "FILE leaves none", file=sys.stderr,
        )
        return 2
    if args.rules:
        print(f"slo: loaded {len(rules.rules)} rule(s) from {args.rules}")
    print(lanes.describe())
    graph, service = _build_serving_service(args)
    meta = _meta(
        args, "dataset", "scale", "model", "epochs",
        vertices=graph.num_vertices, edges=graph.num_edges,
    )
    extras: dict = {}
    status = 0
    with _telemetry(args, meta, extras=extras, rules=rules):
        # SIGTERM is Ctrl-C: drain, write the trace, exit 0.  Installed
        # before the URL is announced, so whoever reads it may send one.
        on_sigterm = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            with ServingServer(service, port=args.port, host=args.host) as server:
                print(
                    f"serving inference on {server.url} "
                    "(/v1/predict, /healthz, /stats.json)"
                )
                deadline = None if args.duration is None else (
                    time.monotonic() + args.duration)
                while deadline is None or time.monotonic() < deadline:
                    step = 1.0
                    if deadline is not None:
                        step = min(step, max(0.0, deadline - time.monotonic()))
                    time.sleep(step)
                    if rules is not None:
                        rules.evaluate(obs.get_metrics().snapshot())
        except KeyboardInterrupt:  # raised in the loop; the server has drained
            print("\nshutting down")
        finally:
            signal.signal(signal.SIGTERM, on_sigterm)
        extras["alerts"] = rules
        stats = service.stats()
        print(
            f"served {stats['requests']} request(s), "
            f"{stats['errors']} error(s); cache hit rate "
            f"{stats['cache']['hit_rate']:.0%}; "
            f"{stats['batcher']['batches']} batch(es)"
        )
    if rules is not None:
        print(rules.summary())
        if args.check and not rules.ok:
            return 1
    return status


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running serving endpoint and print client-side latency."""
    from .serve import concurrency_sweep, run_loadgen, write_results

    common = dict(
        duration_s=args.duration, num_vertices=args.vertices,
        mode=args.mode, seed=args.seed, timeout_s=args.timeout,
    )
    if args.sweep:
        results = concurrency_sweep(args.url, levels=args.sweep, **common)
    else:
        results = [
            run_loadgen(
                args.url, rate=args.rate, concurrency=args.concurrency or 4,
                **common,
            )
        ]
    for result in results:
        print(result.render())
    if args.out:
        write_results(args.out, results)
        print(f"wrote {len(results)} result(s) to {args.out}")
    total = sum(r.requests for r in results)
    completed = total - sum(r.errors for r in results)
    return 0 if total and completed else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    ctx = figures.BenchContext(scale=args.scale)
    print(figures.PLAN[args.name].call(ctx).render())
    return 0


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser that names an unknown flag when the value
    after it filled a positional: ``bench-sharded --bogus 3`` would
    otherwise blame ``dataset`` for ``3`` and never name ``--bogus``."""

    _argv: tuple = ()

    def parse_known_args(self, args=None, namespace=None):
        self._argv = tuple(args or ())
        return super().parse_known_args(args, namespace)

    def error(self, message):
        positionals = [a.dest for a in self._actions if not a.option_strings]
        unknown = [
            arg for arg in self._argv
            if arg.startswith("-") and arg not in ("-", "--")
            and not self._negative_number_matcher.match(arg)
            # A prefix of a flag is that flag, as argparse reads it.
            and not any(option.startswith(arg.split("=", 1)[0])
                        for option in self._option_string_actions)
        ]
        if unknown and any(message.startswith(f"argument {name}:")
                           for name in positionals):
            message = f"unrecognized arguments: {' '.join(unknown)}"
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graphite (ISCA 2022) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (-v INFO, -vv DEBUG)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="decrease log verbosity (errors only)",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser
    )

    p = sub.add_parser("train", help="full-batch training demo")
    _add_twin_flags(p, scale=0.25, width=64, optional_dataset=False)
    p.add_argument("--dropout", type=_dropout, default=0.0)
    p.add_argument("--epochs", type=_non_negative_int, default=5)
    p.add_argument(
        "--shards", type=_positive_int, default=1,
        help="partition-parallel sharded training with N shard workers; "
        "1 = classic full-graph trainer",
    )
    p.add_argument(
        "--backend", choices=SHARD_BACKENDS, default=None,
        help="sharded runtime for --shards > 1 (default serial; process "
        "runs the zero-copy shared-memory pool)",
    )
    p.add_argument(
        "--partition", choices=graphs.PARTITION_METHODS, default=None,
        help="edge-cut partition method for --shards > 1 (default greedy)",
    )
    _add_telemetry_flags(p, "--trace", "--json", "--serve-metrics")
    p.add_argument(
        "--events", metavar="FILE", type=_output_path, default=None,
        help="stream one JSONL epoch event per epoch (loss, accuracies, "
        "per-layer grad/weight norms, wall time, fired rules)",
    )
    p.add_argument(
        "--health", action="store_true",
        help="load the default training rules: NaN/Inf and loss "
        "divergence past 4x the best loss stop the run (exit 1) with a "
        "diagnostic, a 20-epoch stall warns; combines with --rules",
    )
    p.add_argument(
        "--rules", metavar="FILE", default=None,
        help="evaluate declarative SLO rules each epoch against the live "
        "registry ('[name:] metric [stat] op threshold [for K] [fatal]' "
        "per line; proc.* metrics need --serve-metrics); violations "
        "surface as alerts.* metrics, slo: event issues and run-report "
        "entries; a fatal one stops the run (exit 1)",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "bench-sharded",
        help="scaling-efficiency benchmark of the sharded trainer "
        "(synthetic twins 10-100x via --scale)",
    )
    _add_twin_flags(p, scale=10.0, width=32, model=False)
    p.add_argument("--shards", type=_positive_int, nargs="+", default=[1, 2, 4])
    p.add_argument(
        "--partition", choices=graphs.PARTITION_METHODS, default="greedy"
    )
    p.add_argument("--backend", choices=SHARD_BACKENDS, default="process")
    p.add_argument("--epochs", type=_positive_int, default=3)
    _add_telemetry_flags(p, "--trace", "--json")
    p.set_defaults(func=_cmd_bench_sharded)

    p = sub.add_parser(
        "profile",
        help="trace a tiny synthetic training run; print spans + counters",
    )
    p.add_argument("--vertices", type=_positive_int, default=2000)
    p.add_argument("--degree", type=_positive_float, default=8.0)
    p.add_argument("--features", type=_positive_int, default=32)
    p.add_argument("--hidden", type=_positive_int, default=32)
    p.add_argument("--classes", type=_positive_int, default=8)
    p.add_argument("--epochs", type=_positive_int, default=2)
    p.add_argument("--seed", type=int, default=0)
    _add_telemetry_flags(p, "--trace", "--json", "--serve-metrics")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "top",
        help="live terminal view of a training run "
        "(tails the epoch-event JSONL, scrapes a metrics endpoint)",
    )
    p.add_argument(
        "path", nargs="?", default=None,
        help="epoch-event JSONL from `train --events` (or a directory "
        "containing one); may still be growing",
    )
    p.add_argument(
        "--follow", action="store_true",
        help="refresh continuously until interrupted (default: one frame)",
    )
    p.add_argument(
        "--interval", type=_non_negative_float, default=None, metavar="S",
        help="--follow refresh interval in seconds (default: 1)",
    )
    p.add_argument(
        "--refresh-limit", type=_positive_int, default=None, metavar="N",
        help="stop --follow after N frames (default: until interrupted)",
    )
    p.add_argument(
        "--metrics-url", metavar="URL", default=None,
        help="scrape proc.*/alerts.* gauges from a "
        "--serve-metrics endpoint (e.g. http://127.0.0.1:9500)",
    )
    p.add_argument(
        "--rules", metavar="FILE", default=None,
        help="evaluate SLO rules per observed epoch; firing rules show "
        "in the view",
    )
    p.add_argument(
        "--check", action="store_true",
        help="with --rules: exit 1 if any rule fired (CI gate)",
    )
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "serve",
        help="online inference service over a freshly trained model",
    )
    _add_twin_flags(p, scale=0.1, width=32)
    p.add_argument("--epochs", type=_non_negative_int, default=2,
                   help="training epochs before serving (0 = random init)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=_port, default=8099,
        help="inference HTTP port (0 = ephemeral; default: %(default)s)",
    )
    p.add_argument(
        "--duration", type=_positive_float, default=None, metavar="S",
        help="serve for S seconds then exit (default: until Ctrl-C)",
    )
    p.add_argument(
        "--rules", metavar="FILE", default=None,
        help="SLO rules evaluated once per second against the live "
        "registry (default: the built-in serve.* rule set; proc.* "
        "metrics need --serve-metrics)",
    )
    p.add_argument(
        "--no-rules", action="store_true",
        help="disable the built-in serving SLO rules",
    )
    p.add_argument(
        "--check", action="store_true",
        help="exit 1 when any SLO rule fired during the run (needs "
        "rules: not --no-rules without --rules)",
    )
    _add_telemetry_flags(p, "--trace", "--json", "--serve-metrics")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="drive a serving endpoint: open-loop arrivals or "
        "closed-loop concurrency",
    )
    p.add_argument("url", help="base URL of a running `repro serve`")
    p.add_argument("--duration", type=_positive_float, default=3.0)
    p.add_argument(
        "--rate", type=_positive_float, default=None, metavar="QPS",
        help="open-loop Poisson arrival rate (default: closed loop)",
    )
    p.add_argument(
        "--concurrency", type=_positive_int, default=None,
        help="worker threads (closed loop) / dispatch pool size (open "
        "loop); default 4",
    )
    p.add_argument(
        "--sweep", type=_positive_int, nargs="+", default=None,
        metavar="C",
        help="closed-loop sweep over these concurrency levels (its levels "
        "are the concurrency: no --rate or --concurrency)",
    )
    p.add_argument(
        "--vertices", type=_positive_int, default=64,
        help="query-vertex id range [0, N) (default: %(default)s)",
    )
    p.add_argument("--mode", choices=["classify", "embedding"],
                   default="classify")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=_positive_float, default=10.0)
    p.add_argument("--out", metavar="FILE", type=_output_path,
                   help="write the result rows as JSON")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser("experiment", help="run one paper artifact")
    p.add_argument("name", choices=list(figures.PLAN))
    p.add_argument("--scale", type=_positive_float,
                   default=figures.SOFTWARE_SCALE)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is _cmd_train:
        for flag, given in (("--backend", args.backend),
                            ("--partition", args.partition)):
            if given is not None and args.shards == 1:
                parser.error(
                    f"train: {flag} configures the sharded runtime; "
                    "it needs --shards N > 1"
                )
        if args.shards > 1:
            unsupported = [flag for flag, given in (
                ("--dropout", args.dropout), ("--events", args.events),
                ("--health", args.health), ("--rules", args.rules),
            ) if given]
            if unsupported:
                parser.error(
                    f"train: {', '.join(unsupported)} cannot be combined "
                    "with --shards N > 1"
                )
    if args.func is _cmd_top and not args.follow:
        for flag, given in (("--interval", args.interval),
                            ("--refresh-limit", args.refresh_limit)):
            if given is not None:
                parser.error(f"top: {flag} paces --follow; it needs --follow")
    if args.func is _cmd_loadgen and args.sweep:
        for flag, given in (("--rate", args.rate),
                            ("--concurrency", args.concurrency)):
            if given is not None:
                parser.error(
                    f"loadgen: {flag} cannot be combined with --sweep, a "
                    "closed-loop run at each of its concurrency levels"
                )
    _configure_logging(args.verbose - args.quiet)
    logger.info("running %s", args.command)
    try:
        return args.func(args)
    except _Exit as stop:
        return stop.code


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
