"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``datasets`` — print the Table-3 twin statistics.
* ``speedup`` — Figure-11-style speedup column for one dataset.
* ``characterize`` — the full Table-4 layout for one or more datasets.
* ``train`` — full-batch training demo on a twin (``--workers N`` runs
  aggregation on N worker threads; ``--shards N --backend
  {serial,thread,process}`` trains partition-parallel;
  ``--trace FILE`` / ``--json FILE`` emit run telemetry; ``--events
  FILE`` streams per-epoch JSONL events, ``--health`` guards numerics,
  ``--sample-proc`` samples process RSS/CPU, ``--serve-metrics PORT``
  exposes the live registry over HTTP, ``--rules FILE`` evaluates
  declarative SLO rules each epoch).
* ``top`` — live terminal view of an in-progress run: tails the
  epoch-event JSONL, optionally scrapes a ``--serve-metrics`` endpoint,
  and gates on SLO rules (``--check``).
* ``dashboard`` — render an epoch-event log (plus optional run report
  and bench history) into one self-contained offline HTML page.
* ``bench-parallel`` — worker-count sweep of the chunk executor
  (also accepts ``--trace`` / ``--json``).
* ``profile`` — trace one tiny synthetic training run end to end and
  print the span tree, counters, and environment (``--sampling HZ``
  additionally runs the statistical sampling profiler and prints the
  per-phase sampled-time table; ``--flame FILE`` writes collapsed
  stacks for flamegraph tooling).
* ``profile diff`` — compare the sampled profiles of two run reports
  and exit nonzero when a phase regressed past the threshold.
* ``serve`` — train briefly, then answer per-vertex / per-batch
  classification and embedding queries over HTTP (request batcher +
  LRU embedding cache + admission control; every request carries a
  trace id and the ``serve.*`` metric families feed ``--serve-metrics``
  / ``repro top`` / the built-in serving SLO rules).
* ``loadgen`` — drive a running serving endpoint: open-loop Poisson
  arrivals (``--rate``) or closed-loop concurrency, with client-side
  latency percentiles.
* ``bench-serve`` — in-process serving benchmark; records qps +
  p50/p95/p99 latency as a ``bench-serve`` perf-history row.
* ``experiment`` — run one named paper artifact (fig2 ... tab5).

Global flags: ``-v/--verbose`` (repeatable), ``-q/--quiet``, and
``--version``.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
from typing import List, Optional

import numpy as np

logger = logging.getLogger(__name__)


def _configure_logging(verbosity: int) -> None:
    """Map -v/-q counts to the ``repro`` logger level.

    Default WARNING; ``-v`` INFO; ``-vv`` DEBUG; ``-q`` ERROR.
    """
    if verbosity >= 2:
        level = logging.DEBUG
    elif verbosity == 1:
        level = logging.INFO
    elif verbosity == 0:
        level = logging.WARNING
    else:
        level = logging.ERROR
    root = logging.getLogger("repro")
    root.setLevel(level)
    if not root.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        root.addHandler(handler)


@contextlib.contextmanager
def _telemetry(args: argparse.Namespace, meta: dict, extras: Optional[dict] = None):
    """Enable run telemetry when ``--trace``/``--json``/``--perfetto``/
    ``--sample-proc``/``--serve-metrics`` was given.

    Yields the live tracer (or None when telemetry stays off) and, on
    exit, writes the JSONL trace, the run-report JSON, and/or the
    Perfetto (Chrome trace-event) file.  ``--sample-proc`` additionally
    runs the background resource sampler for the block and prints a
    peak-RSS / mean-CPU summary.  ``--serve-metrics PORT`` activates
    telemetry on its own and serves the live registry over HTTP
    (``/metrics`` Prometheus text, ``/snapshot.json`` deltas) for the
    duration of the block; port 0 binds an ephemeral port.

    ``extras`` is a mutable dict the caller may fill *inside* the block
    (keys ``events``, ``sparsity``, and ``alerts``); it is read on exit
    so the run report can embed the epoch-event records, sparsity
    profile, and SLO rule-engine verdict.  When ``--history FILE`` is
    given (bench commands that append a perf-history row), telemetry
    activates even without an output flag and the built run report is
    stashed back into ``extras["report"]`` so the caller can derive a
    :class:`~repro.obs.history.HistoryEntry` from it.
    """
    from . import obs

    trace_path = getattr(args, "trace", None)
    json_path = getattr(args, "json", None)
    perfetto_path = getattr(args, "perfetto", None)
    sample_proc = getattr(args, "sample_proc", False)
    history_path = getattr(args, "history", None)
    serve_port = getattr(args, "serve_metrics", None)
    sampling_hz = getattr(args, "sampling", None)
    flame_path = getattr(args, "flame", None)
    if (
        not trace_path
        and not json_path
        and not perfetto_path
        and not sample_proc
        and not history_path
        and serve_port is None
        and sampling_hz is None
        and not flame_path
    ):
        yield None
        return
    tracer, metrics = obs.enable()
    # --flame alone implies sampling at the default rate; the profiler
    # joins sampled stacks against the tracer's live span stacks so each
    # tick lands in a phase (aggregate/update/backward/compress).
    profiler = obs.NULL_PROFILER
    if sampling_hz is not None or flame_path:
        profiler = obs.SamplingProfiler(
            tracer=tracer,
            hz=sampling_hz or obs.DEFAULT_SAMPLING_HZ,
            registry=metrics,
        )
        obs.set_profiler(profiler)
        profiler.start()
    # --serve-metrics implies --sample-proc: a scrape without proc.*
    # gauges answers none of the questions a live watcher asks.
    sampler = (
        obs.ResourceSampler(metrics)
        if sample_proc or serve_port is not None
        else obs.NULL_SAMPLER
    )
    sampler.start()
    server = obs.NULL_SERVER
    if serve_port is not None:
        server = obs.MetricsServer(metrics, port=serve_port)
        server.start()
        print(
            f"serving live metrics on {server.url} "
            "(/metrics, /snapshot.json)"
        )
    try:
        yield tracer
    finally:
        server.stop()
        sampler.stop()
        profile_data = profiler.stop()
        obs.disable()
        # ``extras`` may arrive as an (empty, falsy) dict the caller will
        # read after the block — never replace it, fill it in place.
        extras = {} if extras is None else extras
        records = [
            span.to_record()
            for span in sorted(tracer.spans(), key=lambda s: s.span_id)
        ]
        if profile_data is not None:
            print("\n== sampled profile ==")
            print(
                obs.render_profile(
                    profile_data, obs.span_phase_seconds(records)
                )
            )
        if flame_path and profile_data is not None:
            count = obs.write_collapsed(flame_path, profile_data)
            print(f"wrote {count} folded stacks to {flame_path}")
        if sample_proc:
            snap = metrics.snapshot()
            rss = snap.get("proc.rss_bytes.samples", {})
            cpu = snap.get("proc.cpu_percent.samples", {})
            print(
                f"sampled process {sampler.samples} times: "
                f"peak RSS {rss.get('max', 0.0) / 2**20:.1f} MiB, "
                f"mean CPU {cpu.get('mean', 0.0):.0f}%"
            )
        if trace_path:
            count = tracer.export_jsonl(trace_path)
            print(f"wrote {count} spans to {trace_path}")
        if json_path or history_path:
            report = obs.build_run_report(
                tracer,
                metrics,
                meta=meta,
                events=extras.get("events"),
                sparsity=extras.get("sparsity"),
                alerts=extras.get("alerts"),
                profile=profile_data,
            )
            extras["report"] = report
            if json_path:
                obs.write_json(json_path, report)
                print(f"wrote run report to {json_path}")
        if perfetto_path:
            count = obs.export_perfetto(
                perfetto_path, tracer, metrics, meta=meta, profile=profile_data
            )
            print(f"wrote {count} span events to {perfetto_path} (Perfetto)")


def _cmd_datasets(args: argparse.Namespace) -> int:
    from .graphs import DATASET_NAMES, graph_stats, load_dataset, paper_row

    for name in DATASET_NAMES:
        stats = graph_stats(load_dataset(name, scale=args.scale))
        vertices_m, edges_m, degree, f_input = paper_row(name)
        print(stats.as_row())
        print(
            f"{'':<13}paper: |V|={vertices_m}M |E|={edges_m}M "
            f"deg={degree} F_input={f_input}"
        )
    return 0


def _cmd_speedup(args: argparse.Namespace) -> int:
    from .graphs import input_feature_size, load_dataset
    from .perf import CostModel, VARIANTS

    graph = load_dataset(args.dataset, scale=args.scale)
    model = CostModel(graph)
    f_input = input_feature_size(args.dataset, 1.0)
    mode = "training" if args.training else "inference"
    print(
        f"{args.dataset} (twin scale {args.scale}), {mode}, "
        f"{args.sparsity:.0%} feature sparsity — speedup over distgnn:"
    )
    variants = [v for v in VARIANTS if v not in ("randomized", "f-locality")]
    if not args.training:
        variants = [v for v in variants if v != "c-locality"]
    for variant in variants:
        if variant == "distgnn":
            continue
        speedup = model.speedup(
            variant, f_input, args.hidden,
            training=args.training, sparsity=args.sparsity,
        )
        print(f"  {variant:<12} {speedup:5.2f}x")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .graphs import input_feature_size, load_dataset
    from .perf.report import characterization_table

    names = args.datasets or ["products"]
    graphs = {name: load_dataset(name, scale=args.scale) for name in names}
    f_input = {name: input_feature_size(name, 1.0) for name in names}
    table = characterization_table(graphs, f_input, sparsity=args.sparsity)
    print(table.render())
    return 0


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")
    return parsed


def _positive_float(value: str) -> float:
    parsed = float(value)
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {value!r}")
    return parsed


def _make_aggregation_kernel(workers: int):
    """The BasicKernel every training command aggregates through."""
    from .kernels import BasicKernel
    from .parallel import ChunkExecutor

    return BasicKernel(executor=ChunkExecutor(workers))


def _cmd_train(args: argparse.Namespace) -> int:
    from .graphs import load_dataset, synthetic_features
    from .nn import Adam, Trainer, build_model
    from .obs.health import HealthError, HealthMonitor

    # Trainer.fit(verbose=True) reports epochs through this logger at
    # INFO; raise it so `repro train` shows the lines without -v.
    logging.getLogger("repro.nn.training").setLevel(logging.INFO)

    graph = load_dataset(args.dataset, scale=args.scale)
    features = synthetic_features(graph, args.features, seed=args.seed)
    labels = np.random.default_rng(args.seed).integers(
        0, args.classes, graph.num_vertices
    )
    model = build_model(
        args.model, args.features, args.hidden, args.classes,
        num_layers=args.layers, dropout=args.dropout, seed=args.seed,
    )
    if args.shards > 1:
        return _train_sharded(args, graph, features, labels, model)
    kernel = _make_aggregation_kernel(args.workers)
    print(f"aggregation: basic kernel x{args.workers}")
    meta = {
        "command": "train",
        "dataset": args.dataset,
        "scale": args.scale,
        "model": args.model,
        "epochs": args.epochs,
        "workers": args.workers,
    }
    event_log = None
    if args.events:
        from .obs.events import EventLog

        event_log = EventLog(args.events, meta=meta)
    health = HealthMonitor() if args.health else None
    rules = None
    if args.rules:
        from .obs.rules import RuleEngine, RuleParseError, load_rules

        try:
            rules = RuleEngine(load_rules(args.rules))
        except (OSError, RuleParseError) as error:
            print(f"{args.rules}: {error}", file=sys.stderr)
            return 2
        print(f"slo: loaded {len(rules.rules)} rule(s) from {args.rules}")
    trainer = Trainer(
        model, Adam(model, lr=args.lr), profile_sparsity=True,
        aggregation_kernel=kernel, event_log=event_log, health=health,
        rules=rules,
    )
    extras: dict = {}
    status = 0
    try:
        with _telemetry(args, meta, extras=extras):
            try:
                trainer.fit(
                    graph, features, labels, epochs=args.epochs, verbose=True
                )
            finally:
                extras["events"] = event_log
                extras["sparsity"] = trainer.history.sparsity
                extras["alerts"] = rules
    except HealthError as error:
        print(f"\ntraining aborted by health monitor:\n{error}", file=sys.stderr)
        status = 1
    finally:
        if event_log is not None:
            event_log.close()
            print(f"wrote {len(event_log)} epoch events to {args.events}")
    history = trainer.history
    if history.epochs:
        print("\nhidden-feature sparsity (Section 2.2):")
        print(history.sparsity.summary())
    if health is not None:
        print(health.summary())
    if rules is not None:
        print(rules.summary())
    return status


def _train_sharded(args, graph, features, labels, model) -> int:
    """The ``--shards N`` path of ``repro train``: partition-parallel
    training on the sharded shared-memory trainer."""
    from .nn import Adam
    from .parallel.sharded import ShardedTrainer

    if args.dropout:
        print("sharded training requires --dropout 0", file=sys.stderr)
        return 2
    for flag, name in ((args.events, "--events"), (args.health, "--health"),
                       (args.rules, "--rules")):
        if flag:
            print(
                f"note: {name} is not supported with --shards; ignoring",
                file=sys.stderr,
            )
    delayed = tuple(args.delay_aggregation or ())
    backend = args.backend or "serial"
    meta = {
        "command": "train",
        "dataset": args.dataset,
        "scale": args.scale,
        "model": args.model,
        "epochs": args.epochs,
        "shards": args.shards,
        "partition": args.partition,
        "backend": backend,
        "delayed_layers": list(delayed),
        "halo_refresh": args.halo_refresh,
    }
    trainer = ShardedTrainer(
        graph, model, Adam(model, lr=args.lr),
        num_shards=args.shards,
        partition_method=args.partition,
        backend=backend,
        delayed_layers=delayed,
        halo_refresh=args.halo_refresh,
    )
    extras: dict = {}
    with _telemetry(args, meta, extras=extras):
        with trainer:
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
                + (f", delayed layers {list(delayed)} "
                   f"refresh every {args.halo_refresh}" if delayed else "")
            )
            for _ in range(args.epochs):
                result = trainer.train_epoch()
                print(
                    f"epoch {result.epoch:>3}  loss {result.loss:.4f}  "
                    f"train-acc {result.train_accuracy:.3f}  "
                    f"halo {trainer.last_halo_bytes / 2**20:.2f} MiB"
                )
    return 0


def _cmd_bench_parallel(args: argparse.Namespace) -> int:
    from .bench.harness import Experiment
    from .graphs import load_dataset, synthetic_features
    from .kernels import (
        BasicKernel,
        CompressedFusedKernel,
        CompressedKernel,
        FusedKernel,
        UpdateParams,
    )
    from .parallel import ChunkExecutor

    graph = load_dataset(args.dataset, scale=args.scale)
    h = synthetic_features(graph, args.features, seed=args.seed, sparsity=0.5)
    rng = np.random.default_rng(args.seed)
    params = UpdateParams(
        weight=(rng.standard_normal((args.features, args.hidden)) * 0.1).astype(
            np.float32
        ),
        bias=np.zeros(args.hidden, dtype=np.float32),
    )
    exp = Experiment(
        "bench-parallel",
        f"{args.kernel} kernel on {args.dataset}",
    )
    meta = {
        "command": "bench-parallel",
        "dataset": args.dataset,
        "scale": args.scale,
        "kernel": args.kernel,
        "workers": list(args.workers),
    }
    extras: dict = {}
    with _telemetry(args, meta, extras=extras):
        for workers in args.workers:
            executor = ChunkExecutor(workers)
            if args.kernel == "basic":
                kernel = BasicKernel(task_size=args.task_size, executor=executor)
                _, stats = kernel.aggregate(graph, h, args.aggregator)
            elif args.kernel == "compression":
                kernel = CompressedKernel(
                    task_size=args.task_size, executor=executor
                )
                _, stats = kernel.aggregate(graph, h, args.aggregator)
            elif args.kernel == "fusion":
                kernel = FusedKernel(executor=executor)
                _, _, stats = kernel.run_layer(graph, h, params, args.aggregator)
            else:  # combined
                kernel = CompressedFusedKernel(executor=executor)
                _, _, stats = kernel.run_layer(graph, h, params, args.aggregator)
            report = kernel.last_report
            exp.add(f"{workers} workers wall time", report.wall_time_s, unit="s")
            exp.add(f"{workers} workers imbalance", report.imbalance, unit="x")
            chunks = ",".join(str(c) for c in report.chunks_per_worker)
            exp.note(
                f"{workers} workers: {stats.tasks} tasks -> [{chunks}] chunks/worker"
            )
    print(exp.render())

    if args.history:
        from .obs import history as hist

        report = extras.get("report")
        if report is None:  # pragma: no cover - _telemetry always builds it
            print("no run report captured; history row skipped", file=sys.stderr)
            return 2
        # The label committed baseline rows carry; `repro compare` keys on it.
        label = args.history_label or "bench-parallel-batched"
        entry = hist.entry_from_run_report(report, label=label)
        hist.append_history(args.history, entry)
        print(f"appended history entry {label!r} to {args.history}")
    return 0


def _cmd_bench_sharded(args: argparse.Namespace) -> int:
    """Scaling-efficiency benchmark of the sharded trainer.

    Sweeps shard counts on a synthetic twin (``--scale 10`` ≈ 10× the
    usual dataset sizes), reporting epochs/s, parallel efficiency
    relative to the smallest swept count, and halo traffic — the
    ``bench-parallel-sharded`` history row.
    """
    import time as time_module

    from .bench.harness import Experiment
    from .graphs import load_dataset, synthetic_features
    from .nn import Adam, build_model
    from .parallel.sharded import ShardedTrainer

    print(f"generating {args.dataset} twin at scale {args.scale}x ...")
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    features = synthetic_features(graph, args.features, seed=args.seed)
    labels = np.random.default_rng(args.seed).integers(
        0, args.classes, graph.num_vertices
    )
    delayed = tuple(args.delay_aggregation or ())
    exp = Experiment(
        "bench-sharded",
        f"sharded {args.partition}-partition training on {args.dataset} "
        f"{args.scale}x ({graph.num_vertices} vertices, "
        f"{graph.num_edges} edges; {args.backend} backend)",
    )
    meta = {
        "command": "bench-sharded",
        "dataset": args.dataset,
        "scale": args.scale,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "shards": list(args.shards),
        "partition": args.partition,
        "backend": args.backend,
        "epochs": args.epochs,
        "delayed_layers": list(delayed),
        "halo_refresh": args.halo_refresh,
    }
    sharded_metrics: dict = {}
    extras: dict = {}
    base_rate: Optional[float] = None
    base_shards: Optional[int] = None
    with _telemetry(args, meta, extras=extras):
        for shards in args.shards:
            model = build_model(
                "gcn", args.features, args.hidden, args.classes,
                num_layers=args.layers, dropout=0.0, seed=args.seed,
            )
            trainer = ShardedTrainer(
                graph, model, Adam(model, lr=args.lr),
                num_shards=shards,
                partition_method=args.partition,
                backend=args.backend,
                delayed_layers=delayed,
                halo_refresh=args.halo_refresh,
            )
            with trainer:
                trainer.fit(features, labels, epochs=1)  # setup + warmup
                start = time_module.perf_counter()
                for _ in range(args.epochs):
                    trainer.train_epoch()
                elapsed = time_module.perf_counter() - start
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
                f" worker payload {setup_max} B"
            )
            prefix = f"sharded.shards{shards}"
            sharded_metrics[f"{prefix}.epoch_s"] = epoch_s
            sharded_metrics[f"{prefix}.epochs_per_s"] = rate
            sharded_metrics[f"{prefix}.efficiency"] = efficiency
            sharded_metrics[f"{prefix}.halo_mb_per_epoch"] = halo_mb
            sharded_metrics[f"{prefix}.setup_bytes"] = float(setup_max)
            sharded_metrics["sharded.partition.cut_fraction"] = cut
    print(exp.render())

    if args.history:
        from .obs import history as hist

        report = extras.get("report")
        if report is None:  # pragma: no cover - _telemetry always builds it
            print("no run report captured; history row skipped", file=sys.stderr)
            return 2
        label = args.history_label or "bench-parallel-sharded"
        entry = hist.entry_from_run_report(report, label=label, meta=meta)
        entry.metrics.update(sharded_metrics)
        hist.append_history(args.history, entry)
        print(f"appended history entry {label!r} to {args.history}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Trace one tiny synthetic training run and print the telemetry."""
    from . import obs
    from .graphs import power_law_graph, synthetic_features
    from .kernels import BasicKernel, CompressedKernel
    from .nn import Adam, Trainer, build_model
    from .parallel import ChunkExecutor

    graph = power_law_graph(
        args.vertices, args.degree, seed=args.seed, name="synthetic"
    )
    features = synthetic_features(
        graph, args.features, seed=args.seed, sparsity=0.5
    )
    labels = np.random.default_rng(args.seed).integers(
        0, args.classes, graph.num_vertices
    )
    model = build_model(
        "gcn", args.features, args.hidden, args.classes, seed=args.seed
    )
    executor = ChunkExecutor(args.workers)
    if args.kernel == "basic":
        kernel = BasicKernel(executor=executor)
    else:
        kernel = CompressedKernel(executor=executor)
    trainer = Trainer(model, Adam(model, lr=0.01), aggregation_kernel=kernel)

    tracer, metrics = obs.enable()
    profiler = obs.NULL_PROFILER
    if args.sampling is not None or args.flame:
        profiler = obs.SamplingProfiler(
            tracer=tracer,
            hz=args.sampling or obs.DEFAULT_SAMPLING_HZ,
            registry=metrics,
        )
        obs.set_profiler(profiler)
        profiler.start()
    server = obs.NULL_SERVER
    if args.serve_metrics is not None:
        server = obs.MetricsServer(metrics, port=args.serve_metrics).start()
        print(
            f"serving live metrics on {server.url} "
            "(/metrics, /snapshot.json)"
        )
    try:
        history = trainer.fit(graph, features, labels, epochs=args.epochs)
    finally:
        server.stop()
        profile_data = profiler.stop()
        obs.disable()

    records = [
        span.to_record()
        for span in sorted(tracer.spans(), key=lambda s: s.span_id)
    ]
    print(
        f"profiled {args.epochs} epoch(s) on {graph.num_vertices} vertices, "
        f"{args.kernel} kernel x{args.workers} "
        f"(final loss {history.final_loss:.4f})"
    )
    print("\n== span tree ==")
    print(obs.render_span_tree(records))
    print("\n== aggregation counters (all kernel spans) ==")
    for key, value in sorted(tracer.aggregate_counters("kernel.*").items()):
        print(f"  {key:<24} {value:g}")
    print("\n== environment ==")
    for key, value in obs.environment_info().items():
        print(f"  {key:<16} {value}")

    from .perf import CostModel

    attribution = obs.attribute_run(
        records,
        cost_model=CostModel(graph),
        sparsity=0.5,
        metrics_snapshot=metrics.snapshot(),
    )
    print("\n== bottleneck attribution ==")
    print(attribution.render())

    if profile_data is not None:
        print("\n== sampled profile ==")
        print(obs.render_profile(profile_data, obs.span_phase_seconds(records)))

    meta = {
        "command": "profile",
        "vertices": args.vertices,
        "kernel": args.kernel,
        "workers": args.workers,
        "epochs": args.epochs,
    }
    if profile_data is not None:
        meta["sampling_hz"] = profile_data.hz
    if args.trace:
        count = tracer.export_jsonl(args.trace)
        print(f"\nwrote {count} spans to {args.trace}")
    if args.json:
        obs.write_json(
            args.json,
            obs.build_run_report(
                tracer, metrics, meta=meta, profile=profile_data
            ),
        )
        print(f"wrote run report to {args.json}")
    if args.perfetto:
        count = obs.export_perfetto(
            args.perfetto, tracer, metrics, meta=meta, profile=profile_data
        )
        print(f"wrote {count} span events to {args.perfetto} (Perfetto)")
    if args.attrib:
        attribution.write_json(args.attrib)
        print(f"wrote attribution report to {args.attrib}")
    if args.flame:
        if profile_data is None:  # pragma: no cover - flame implies sampling
            print("no sampled profile captured; flame output skipped")
        else:
            count = obs.write_collapsed(args.flame, profile_data)
            print(f"wrote {count} folded stacks to {args.flame}")
    return 0


def _cmd_profile_diff(args: argparse.Namespace) -> int:
    """Compare two sampled-profile captures; exit 1 on phase regression."""
    import json as json_module

    from .obs import load_profile_document, profile_diff

    try:
        baseline = load_profile_document(args.baseline)
        candidate = load_profile_document(args.candidate)
    except (OSError, ValueError, json_module.JSONDecodeError) as error:
        print(f"profile diff: {error}", file=sys.stderr)
        return 2
    diff = profile_diff(
        baseline,
        candidate,
        threshold=args.threshold,
        min_seconds=args.min_seconds,
    )
    print(diff.render())
    return 0 if diff.ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    """Gate a run against the perf history: exit 1 on regression."""
    import json as json_module

    from .obs import history as hist

    entries = hist.load_history(args.history, label=args.label)
    if args.current:
        with open(args.current) as handle:
            doc = json_module.load(handle)
        if "experiments" in doc:
            current = hist.entry_from_bench_results(doc, label=args.label or "bench")
        elif "spans" in doc:
            current = hist.entry_from_run_report(doc, label=args.label or "run")
        else:
            print(f"{args.current}: neither a BENCH results nor a run-report JSON")
            return 2
        baseline = entries
    else:
        if len(entries) < 2:
            print(
                f"{args.history}: need >= 2 entries"
                + (f" with label {args.label!r}" if args.label else "")
                + " to compare (gate passes trivially)"
            )
            return 0
        current = entries[-1]
        baseline = entries[:-1]
    if not baseline:
        print("no baseline entries yet — gate passes trivially")
        return 0
    report = hist.compare_entries(
        baseline,
        current,
        threshold=args.threshold,
        baseline_runs=args.baseline_runs,
        higher_is_better=hist.default_higher_is_better(current.metrics),
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_dashboard(args: argparse.Namespace) -> int:
    """Render the epoch-event log (+ report, + history) into one HTML file."""
    from .obs import validate_events_file
    from .obs.dashboard import write_dashboard

    if not args.events and not args.report and not args.history:
        print(
            "dashboard: need an events file, --report, or --history",
            file=sys.stderr,
        )
        return 2
    if args.events:
        try:
            validate_events_file(args.events)
        except ValueError as error:
            print(f"{args.events}: {error}", file=sys.stderr)
            return 2
    write_dashboard(
        args.output,
        events_path=args.events,
        report_path=args.report,
        history_path=args.history,
        title=args.title,
    )
    print(f"wrote dashboard to {args.output}")
    return 0


def _resolve_events_path(path: Optional[str]) -> Optional[str]:
    """Map a ``repro top`` PATH operand onto an epoch-event file.

    A file path is used as-is (it may not exist yet — the tail waits for
    it).  A directory is searched for ``*events*.jsonl`` first, then any
    ``*.jsonl``, taking the most recently modified match.
    """
    import glob
    import os

    if path is None or not os.path.isdir(path):
        return path
    for pattern in ("*events*.jsonl", "*.jsonl"):
        matches = glob.glob(os.path.join(path, pattern))
        if matches:
            return max(matches, key=os.path.getmtime)
    return None


def _cmd_top(args: argparse.Namespace) -> int:
    """Live terminal view of a training run (events tail + metrics scrape)."""
    from .obs.live import LiveRunMonitor
    from .obs.rules import RuleEngine, RuleParseError, load_rules

    events_path = _resolve_events_path(args.path)
    if events_path is None and not args.metrics_url:
        print(
            f"top: no epoch-event JSONL found under {args.path!r} and no "
            "--metrics-url; nothing to watch",
            file=sys.stderr,
        )
        return 2
    rules = None
    if args.rules:
        try:
            rules = RuleEngine(load_rules(args.rules))
        except (OSError, RuleParseError) as error:
            print(f"{args.rules}: {error}", file=sys.stderr)
            return 2
    if args.check and rules is None:
        print("top: --check needs --rules FILE", file=sys.stderr)
        return 2
    monitor = LiveRunMonitor(
        events_path or "", metrics_url=args.metrics_url, rules=rules
    )
    if args.follow:
        monitor.follow(
            interval_s=args.interval, refresh_limit=args.refresh_limit
        )
    else:  # --once (the default): one poll, one frame
        monitor.poll()
        print(monitor.render())
    if args.check and not rules.ok:
        print(rules.summary(), file=sys.stderr)
        return 1
    return 0


def _build_serving_service(args) -> tuple:
    """Train a small model and wrap it in an InferenceService.

    Shared by ``repro serve`` and ``repro bench-serve``: dataset twin +
    synthetic features/labels, a short training run (the service answers
    from whatever the model learned), then the serving pipeline with the
    cache/batcher knobs from the command line.
    """
    from .graphs import load_dataset, synthetic_features
    from .nn import Adam, Trainer, build_model
    from .serve import InferenceService

    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    features = synthetic_features(graph, args.features, seed=args.seed)
    labels = np.random.default_rng(args.seed).integers(
        0, args.classes, graph.num_vertices
    )
    model = build_model(
        args.model, args.features, args.hidden, args.classes,
        num_layers=args.layers, seed=args.seed,
    )
    if args.epochs:
        print(
            f"training {args.model} x{args.layers} on {args.dataset} "
            f"{args.scale}x for {args.epochs} epoch(s) ..."
        )
        trainer = Trainer(
            model, Adam(model, lr=args.lr),
            aggregation_kernel=_make_aggregation_kernel(1),
        )
        trainer.fit(graph, features, labels, epochs=args.epochs)
    service = InferenceService(
        graph,
        features,
        model,
        cache_capacity=args.cache_capacity,
        cache_max_age_s=args.cache_max_age,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        fanouts=args.fanout or None,
        seed=args.seed,
    )
    return graph, service


def _cmd_serve(args: argparse.Namespace) -> int:
    """Train briefly, then answer inference queries over HTTP."""
    import signal
    import time as time_module

    from .obs.rules import RuleEngine, RuleParseError, default_serve_rules, load_rules
    from .serve import ServingServer

    rules = None
    if args.rules:
        try:
            rules = RuleEngine(load_rules(args.rules))
        except (OSError, RuleParseError) as error:
            print(f"{args.rules}: {error}", file=sys.stderr)
            return 2
        print(f"slo: loaded {len(rules.rules)} rule(s) from {args.rules}")
    elif not args.no_rules:
        rules = RuleEngine(default_serve_rules())
    graph, service = _build_serving_service(args)
    meta = {
        "command": "serve",
        "dataset": args.dataset,
        "scale": args.scale,
        "model": args.model,
        "epochs": args.epochs,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "max_batch": args.max_batch,
        "assembly": "sampled" if args.fanout else "exact",
    }
    from .obs import get_metrics

    extras: dict = {}
    status = 0
    with _telemetry(args, meta, extras=extras):
        registry = get_metrics()
        # SIGTERM is Ctrl-C: drain, write the trace, exit 0.  Installed
        # before the URL is announced, so whoever reads it may send one.
        on_sigterm = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            with ServingServer(service, port=args.port, host=args.host) as server:
                print(
                    f"serving inference on {server.url} "
                    "(/v1/predict, /healthz, /stats.json)"
                )
                deadline = (
                    time_module.monotonic() + args.duration
                    if args.duration is not None
                    else None
                )
                while deadline is None or time_module.monotonic() < deadline:
                    step = 1.0
                    if deadline is not None:
                        step = min(step, max(0.0, deadline - time_module.monotonic()))
                    time_module.sleep(step)
                    if rules is not None:
                        rules.evaluate(registry.snapshot())
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

    if args.sweep:
        results = concurrency_sweep(
            args.url,
            levels=args.sweep,
            duration_s=args.duration,
            num_vertices=args.vertices,
            mode=args.mode,
            seed=args.seed,
        )
    else:
        results = [
            run_loadgen(
                args.url,
                duration_s=args.duration,
                rate=args.rate,
                concurrency=args.concurrency,
                num_vertices=args.vertices,
                mode=args.mode,
                seed=args.seed,
                timeout_s=args.timeout,
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


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    """Serving benchmark: in-process server + closed-loop load, one
    ``bench-serve`` history row (qps + latency percentiles)."""
    from .bench.harness import Experiment
    from .serve import ServingServer, run_loadgen

    graph, service = _build_serving_service(args)
    meta = {
        "command": "bench-serve",
        "dataset": args.dataset,
        "scale": args.scale,
        "model": args.model,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "concurrency": args.concurrency,
        "duration_s": args.duration,
        "query_vertices": args.vertices,
        "max_batch": args.max_batch,
        "assembly": "sampled" if args.fanout else "exact",
    }
    extras: dict = {}
    with _telemetry(args, meta, extras=extras):
        with ServingServer(service, port=0, host=args.host) as server:
            print(f"serving inference on {server.url}")
            if args.warmup > 0:
                run_loadgen(
                    server.url,
                    duration_s=args.warmup,
                    concurrency=args.concurrency,
                    num_vertices=args.vertices,
                    mode=args.mode,
                    seed=args.seed + 1,
                )
            result = run_loadgen(
                server.url,
                duration_s=args.duration,
                concurrency=args.concurrency,
                num_vertices=args.vertices,
                mode=args.mode,
                seed=args.seed,
            )
        stats = service.stats()
    print(result.render())
    print(
        f"server: cache hit rate {stats['cache']['hit_rate']:.0%}, "
        f"{stats['batcher']['batches']} batch(es), "
        f"{stats['batcher']['rejected']} rejected"
    )
    exp = Experiment(
        "bench-serve",
        f"closed-loop x{args.concurrency} serving bench on {args.dataset} "
        f"{args.scale}x ({graph.num_vertices} vertices)",
    )
    exp.add("throughput", result.qps, unit="qps")
    exp.add("latency p50", result.latency.percentile(50.0) * 1e3, unit="ms")
    exp.add("latency p95", result.latency.percentile(95.0) * 1e3, unit="ms")
    exp.add("latency p99", result.latency.percentile(99.0) * 1e3, unit="ms")
    print(exp.render())
    if result.requests == 0 or result.errors == result.requests:
        print("bench-serve: no successful requests", file=sys.stderr)
        return 1
    if args.history:
        from .obs import history as hist

        report = extras.get("report")
        if report is None:  # pragma: no cover - _telemetry always builds it
            print("no run report captured; history row skipped", file=sys.stderr)
            return 2
        label = args.history_label or "bench-serve"
        entry = hist.entry_from_run_report(report, label=label, meta=meta)
        entry.metrics.update(result.metrics())
        entry.metrics["serve.cache_hit_rate"] = stats["cache"]["hit_rate"]
        hist.append_history(args.history, entry)
        print(f"appended history entry {label!r} to {args.history}")
    return 0


_EXPERIMENTS = {
    "fig2": ("fig2_gpu_sampling", True),
    "fig3": ("fig3_topdown", True),
    "tab3": ("tab3_datasets", True),
    "fig11a": ("fig11_software_speedups", True),
    "fig11b": ("fig11_software_speedups", True),
    "fig13": ("fig13_fusion_breakdown", True),
    "fig14": ("fig14_compression_sweep", True),
    "fig15": ("fig15_locality", True),
    "tab4": ("tab4_characterization", True),
    "fig12a": ("fig12_dma_speedups", False),
    "fig12b": ("fig12_dma_speedups", False),
    "fig16": ("fig16_tracking_table", False),
    "tab5": ("tab5_cache_reduction", False),
    "sec732": ("sec732_memory_system", False),
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .bench import figures

    key = args.name
    if key not in _EXPERIMENTS:
        print(f"unknown experiment {key!r}; choose from {sorted(_EXPERIMENTS)}")
        return 2
    fn_name, takes_ctx = _EXPERIMENTS[key]
    fn = getattr(figures, fn_name)
    kwargs = {}
    if key == "fig11b":
        kwargs["training"] = True
    if key == "fig12b":
        kwargs["training"] = True
    if key == "fig14":
        kwargs["training"] = args.training
    if takes_ctx:
        experiment = fn(figures.BenchContext(scale=args.scale), **kwargs)
    else:
        experiment = fn(**kwargs)
    print(experiment.render())
    return 0


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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="Table-3 twin statistics")
    p.add_argument("--scale", type=float, default=0.5)
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser("speedup", help="Figure-11 speedup column")
    p.add_argument("dataset", choices=["products", "wikipedia", "papers", "twitter"])
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--hidden", type=int, default=256)
    p.add_argument("--sparsity", type=float, default=0.5)
    p.add_argument("--training", action="store_true")
    p.set_defaults(func=_cmd_speedup)

    p = sub.add_parser("characterize", help="Table-4 characterization")
    p.add_argument("datasets", nargs="*", default=None)
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--sparsity", type=float, default=0.5)
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("train", help="full-batch training demo")
    p.add_argument("dataset", choices=["products", "wikipedia", "papers", "twitter"])
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--model", choices=["gcn", "sage"], default="gcn")
    p.add_argument("--features", type=int, default=64)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers", type=_positive_int, default=1,
        help="aggregation worker threads of the full-graph trainer",
    )
    p.add_argument(
        "--shards", type=_positive_int, default=1,
        help="partition-parallel sharded training with N shard workers; "
        "1 = classic full-graph trainer",
    )
    p.add_argument(
        "--backend", choices=["serial", "thread", "process"], default=None,
        help="sharded runtime for --shards > 1 (default serial; process "
        "runs the zero-copy shared-memory pool)",
    )
    p.add_argument(
        "--partition", choices=["contiguous", "bfs", "greedy"],
        default="greedy",
        help="edge-cut partition method for --shards > 1",
    )
    p.add_argument(
        "--delay-aggregation", type=int, nargs="*", default=[],
        metavar="LAYER",
        help="layers (>= 1) running DistGNN-style delayed aggregation: "
        "their halo refreshes only every --halo-refresh epochs",
    )
    p.add_argument(
        "--halo-refresh", type=_positive_int, default=8,
        help="refresh period (epochs) for --delay-aggregation layers",
    )
    p.add_argument("--trace", metavar="FILE", help="write a JSONL span trace")
    p.add_argument("--json", metavar="FILE", help="write a run-report JSON")
    p.add_argument(
        "--perfetto", metavar="FILE",
        help="write a Perfetto/chrome://tracing trace JSON",
    )
    p.add_argument(
        "--events", metavar="FILE", default=None,
        help="stream one JSONL epoch event per epoch (loss, accuracies, "
        "per-layer grad/weight norms, sparsity, compression savings)",
    )
    p.add_argument(
        "--health", action="store_true",
        help="guard numerics each epoch (NaN/Inf, loss divergence, "
        "stall); fatal issues abort the run with a diagnostic",
    )
    p.add_argument(
        "--sample-proc", action="store_true",
        help="sample process RSS / CPU%% / threads in the background "
        "and publish proc.* metrics",
    )
    p.add_argument(
        "--serve-metrics", metavar="PORT", type=int, default=None,
        help="serve the live metrics registry over HTTP for the run "
        "(GET /metrics Prometheus text, GET /snapshot.json deltas); "
        "0 binds an ephemeral port; implies --sample-proc",
    )
    p.add_argument(
        "--rules", metavar="FILE", default=None,
        help="evaluate declarative SLO rules each epoch "
        "('[name:] metric [stat] op threshold [for K]' per line); "
        "violations surface as alerts.* metrics, slo: event issues, "
        "and run-report entries",
    )
    p.add_argument(
        "--sampling", metavar="HZ", type=_positive_float, default=None,
        help="run the sampling profiler at HZ: walk the interpreter "
        "stacks, attribute samples to span phases, print the per-phase "
        "table, and embed the profile in --json/--perfetto outputs",
    )
    p.add_argument(
        "--flame", metavar="FILE", default=None,
        help="write the sampled profile as collapsed stacks "
        "(flamegraph.pl / speedscope input); implies --sampling "
        "at the default 97 Hz",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "bench-parallel", help="worker-count sweep of the chunk executor"
    )
    p.add_argument("dataset", choices=["products", "wikipedia", "papers", "twitter"])
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument(
        "--kernel",
        choices=["basic", "fusion", "compression", "combined"],
        default="basic",
    )
    p.add_argument(
        "--aggregator", choices=["gcn", "sage-mean", "mean"], default="gcn"
    )
    p.add_argument("--features", type=int, default=32)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--task-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_positive_int, nargs="+", default=[1, 2, 4])
    p.add_argument(
        "--history", metavar="FILE", default=None,
        help="append one history entry (sweep span totals) to this JSONL "
        "perf history",
    )
    p.add_argument(
        "--history-label", default=None,
        help="history entry label (default: bench-parallel-batched)",
    )
    p.add_argument("--trace", metavar="FILE", help="write a JSONL span trace")
    p.add_argument("--json", metavar="FILE", help="write a run-report JSON")
    p.add_argument(
        "--perfetto", metavar="FILE",
        help="write a Perfetto/chrome://tracing trace JSON",
    )
    p.add_argument(
        "--serve-metrics", metavar="PORT", type=int, default=None,
        help="serve the live metrics registry over HTTP during the sweep "
        "(0 = ephemeral port); implies --sample-proc",
    )
    p.set_defaults(func=_cmd_bench_parallel)

    p = sub.add_parser(
        "bench-sharded",
        help="scaling-efficiency benchmark of the sharded trainer "
        "(synthetic twins 10-100x via --scale)",
    )
    p.add_argument(
        "dataset", nargs="?", default="products",
        choices=["products", "wikipedia", "papers", "twitter"],
    )
    p.add_argument("--scale", type=float, default=10.0)
    p.add_argument("--shards", type=_positive_int, nargs="+", default=[1, 2, 4])
    p.add_argument(
        "--partition", choices=["contiguous", "bfs", "greedy"],
        default="greedy",
    )
    p.add_argument(
        "--backend", choices=["serial", "thread", "process"],
        default="process",
    )
    p.add_argument("--epochs", type=_positive_int, default=3)
    p.add_argument("--features", type=int, default=32)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--delay-aggregation", type=int, nargs="*", default=[],
        metavar="LAYER",
    )
    p.add_argument("--halo-refresh", type=_positive_int, default=8)
    p.add_argument("--trace", metavar="FILE", help="write a JSONL span trace")
    p.add_argument("--json", metavar="FILE", help="write a run-report JSON")
    p.add_argument(
        "--history", metavar="FILE", default=None,
        help="append this run's metrics as a JSONL perf-history row",
    )
    p.add_argument(
        "--history-label", default=None,
        help="history row label (default bench-parallel-sharded)",
    )
    p.set_defaults(func=_cmd_bench_sharded)

    p = sub.add_parser(
        "profile",
        help="trace a tiny synthetic training run; print spans + counters",
    )
    p.add_argument("--vertices", type=_positive_int, default=2000)
    p.add_argument("--degree", type=float, default=8.0)
    p.add_argument("--features", type=int, default=32)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--epochs", type=_positive_int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kernel", choices=["basic", "compression"], default="basic")
    p.add_argument("--workers", type=_positive_int, default=2)
    p.add_argument("--trace", metavar="FILE", help="write a JSONL span trace")
    p.add_argument("--json", metavar="FILE", help="write a run-report JSON")
    p.add_argument(
        "--perfetto", metavar="FILE",
        help="write a Perfetto/chrome://tracing trace JSON",
    )
    p.add_argument(
        "--attrib", metavar="FILE",
        help="write the bottleneck-attribution report JSON",
    )
    p.add_argument(
        "--serve-metrics", metavar="PORT", type=int, default=None,
        help="serve the live metrics registry over HTTP during the "
        "profiled run (0 = ephemeral port)",
    )
    p.add_argument(
        "--sampling", metavar="HZ", type=_positive_float, default=None,
        help="run the sampling profiler at HZ: walk the interpreter "
        "stacks, attribute samples to span phases "
        "(aggregate/update/backward/compress), and print the per-phase "
        "and top-function tables",
    )
    p.add_argument(
        "--flame", metavar="FILE", default=None,
        help="write the sampled profile as collapsed stacks "
        "(flamegraph.pl / speedscope input); implies --sampling "
        "at the default 97 Hz",
    )
    p.set_defaults(func=_cmd_profile)
    psub = p.add_subparsers(
        dest="profile_command", metavar="{diff}",
        help="profile subcommands (omit to trace a run)",
    )
    pd = psub.add_parser(
        "diff",
        help="compare two sampled-profile captures "
        "(run reports or profile dicts); exit 1 on phase regression",
    )
    pd.add_argument(
        "baseline",
        help="baseline run-report JSON (from --sampling --json FILE)",
    )
    pd.add_argument(
        "candidate", help="candidate run-report JSON to judge"
    )
    pd.add_argument(
        "--threshold", type=_positive_float, default=0.25,
        help="relative per-phase regression tolerance "
        "(default: %(default)s)",
    )
    pd.add_argument(
        "--min-seconds", type=_positive_float, default=0.02,
        help="absolute per-phase slack in seconds — deltas below this "
        "never gate (default: %(default)s)",
    )
    pd.set_defaults(func=_cmd_profile_diff)

    p = sub.add_parser(
        "compare",
        help="gate a run against BENCH_history.jsonl (exit 1 on regression)",
    )
    p.add_argument(
        "--history", metavar="FILE", default="BENCH_history.jsonl",
        help="JSONL perf history (default: %(default)s)",
    )
    p.add_argument(
        "--label", default=None,
        help="only compare entries with this label",
    )
    p.add_argument(
        "--current", metavar="FILE", default=None,
        help="judge this BENCH_results.json / run-report JSON against the "
        "whole history (default: last history entry vs the rest)",
    )
    p.add_argument(
        "--threshold", type=float, default=0.15,
        help="relative regression tolerance (default: %(default)s)",
    )
    p.add_argument(
        "--baseline-runs", type=_positive_int, default=5,
        help="median window size (default: %(default)s)",
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "dashboard",
        help="render an epoch-event log into a self-contained HTML page",
    )
    p.add_argument(
        "events", nargs="?", default=None,
        help="epoch-event JSONL from `train --events` (validated first)",
    )
    p.add_argument(
        "-o", "--output", metavar="FILE", default="run_dashboard.html",
        help="output HTML path (default: %(default)s)",
    )
    p.add_argument(
        "--report", metavar="FILE", default=None,
        help="run-report JSON (adds span + per-technique sections)",
    )
    p.add_argument(
        "--history", metavar="FILE", default=None,
        help="BENCH_history.jsonl (adds the wall-time trend chart)",
    )
    p.add_argument("--title", default=None, help="page title")
    p.set_defaults(func=_cmd_dashboard)

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
        "--once", action="store_true",
        help="render exactly one frame and exit (the default)",
    )
    p.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="--follow refresh interval in seconds (default: %(default)s)",
    )
    p.add_argument(
        "--refresh-limit", type=_positive_int, default=None, metavar="N",
        help="stop --follow after N frames (default: until interrupted)",
    )
    p.add_argument(
        "--metrics-url", metavar="URL", default=None,
        help="scrape proc.*/executor.*/alerts.* gauges from a "
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

    def _serving_model_args(p: argparse.ArgumentParser) -> None:
        """Flags ``serve`` and ``bench-serve`` share: the model to train
        and the cache/batcher knobs of the serving pipeline."""
        p.add_argument(
            "dataset", nargs="?", default="products",
            choices=["products", "wikipedia", "papers", "twitter"],
        )
        p.add_argument("--scale", type=float, default=0.1)
        p.add_argument("--model", choices=["gcn", "sage"], default="gcn")
        p.add_argument("--features", type=int, default=32)
        p.add_argument("--hidden", type=int, default=32)
        p.add_argument("--classes", type=int, default=8)
        p.add_argument("--layers", type=int, default=2)
        p.add_argument("--epochs", type=int, default=2,
                       help="training epochs before serving (0 = random init)")
        p.add_argument("--lr", type=float, default=0.01)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument(
            "--fanout", type=_positive_int, nargs="*", default=[],
            metavar="F",
            help="per-layer neighbor-sampling fanouts (input layer first); "
            "empty = exact full-neighborhood assembly.  The first layer "
            "is always exact (its aggregation is kept), so the first "
            "fanout is unused and answers are strictly closer to the "
            "full-batch prediction than sampling every layer",
        )
        p.add_argument(
            "--cache-capacity", type=_positive_int, default=4096,
            help="LRU embedding-cache entries (default: %(default)s)",
        )
        p.add_argument(
            "--cache-max-age", type=_positive_float, default=None,
            metavar="S",
            help="staleness bound: cached rows older than S seconds are "
            "recomputed (default: never stale)",
        )
        p.add_argument(
            "--max-batch", type=_positive_int, default=32,
            help="most requests one forward pass answers; the worker "
            "takes whatever is queued when it is free, with no wait "
            "(default: %(default)s)",
        )
        p.add_argument(
            "--max-queue", type=_positive_int, default=128,
            help="admission-queue bound; beyond it requests shed with 503 "
            "(default: %(default)s)",
        )

    p = sub.add_parser(
        "serve",
        help="online inference service over a freshly trained model",
    )
    _serving_model_args(p)
    p.add_argument(
        "--port", type=int, default=8099,
        help="inference HTTP port (0 = ephemeral; default: %(default)s)",
    )
    p.add_argument(
        "--duration", type=_positive_float, default=None, metavar="S",
        help="serve for S seconds then exit (default: until Ctrl-C)",
    )
    p.add_argument(
        "--rules", metavar="FILE", default=None,
        help="SLO rules evaluated once per second against the live "
        "registry (default: the built-in serve.* rule set)",
    )
    p.add_argument(
        "--no-rules", action="store_true",
        help="disable the built-in serving SLO rules",
    )
    p.add_argument(
        "--check", action="store_true",
        help="exit 1 when any SLO rule fired during the run",
    )
    p.add_argument("--trace", metavar="FILE", help="write a JSONL span trace")
    p.add_argument("--json", metavar="FILE", help="write a run-report JSON")
    p.add_argument(
        "--perfetto", metavar="FILE",
        help="write a Perfetto/chrome://tracing trace JSON",
    )
    p.add_argument(
        "--serve-metrics", metavar="PORT", type=int, default=None,
        help="additionally serve the live metrics registry over HTTP "
        "(0 = ephemeral); implies --sample-proc",
    )
    p.add_argument("--sample-proc", action="store_true",
                   help="sample process RSS/CPU and publish proc.* metrics")
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
        "--concurrency", type=_positive_int, default=4,
        help="worker threads (closed loop) / dispatch pool size (open loop)",
    )
    p.add_argument(
        "--sweep", type=_positive_int, nargs="+", default=None,
        metavar="C",
        help="closed-loop sweep over these concurrency levels",
    )
    p.add_argument(
        "--vertices", type=_positive_int, default=64,
        help="query-vertex id range [0, N) (default: %(default)s)",
    )
    p.add_argument("--mode", choices=["classify", "embedding"],
                   default="classify")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=_positive_float, default=10.0)
    p.add_argument("--out", metavar="FILE",
                   help="write the result rows as JSON")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser(
        "bench-serve",
        help="serving benchmark: in-process server + closed-loop load; "
        "records qps + latency percentiles as a history row",
    )
    _serving_model_args(p)
    p.add_argument("--duration", type=_positive_float, default=3.0)
    p.add_argument("--warmup", type=float, default=0.5,
                   help="untimed warmup seconds (default: %(default)s)")
    p.add_argument("--concurrency", type=_positive_int, default=4)
    p.add_argument(
        "--vertices", type=_positive_int, default=64,
        help="query-vertex id range [0, N) (default: %(default)s)",
    )
    p.add_argument("--mode", choices=["classify", "embedding"],
                   default="classify")
    p.add_argument("--trace", metavar="FILE", help="write a JSONL span trace")
    p.add_argument("--json", metavar="FILE", help="write a run-report JSON")
    p.add_argument(
        "--history", metavar="FILE", default=None,
        help="append qps + latency percentiles as a JSONL perf-history row",
    )
    p.add_argument(
        "--history-label", default=None,
        help="history row label (default bench-serve)",
    )
    p.set_defaults(func=_cmd_bench_serve)

    p = sub.add_parser("experiment", help="run one paper artifact")
    p.add_argument("name", help=f"one of {sorted(_EXPERIMENTS)}")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--training", action="store_true")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is _cmd_train and args.backend is not None and args.shards == 1:
        parser.error(
            "train: --backend selects the sharded runtime; it needs --shards N > 1"
        )
    _configure_logging(args.verbose - args.quiet)
    logger.info("running %s", args.command)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
