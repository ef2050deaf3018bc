"""Unit tests for the command-line interface."""

import errno
import http.client
import json
import logging
import multiprocessing
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from urllib.parse import urlsplit

import numpy as np
import pytest

import repro
import repro.graphs as graphs
from repro import __version__, lanes
from repro.cli import _configure_logging, build_parser, main
from repro.obs import read_trace
from repro.obs.events import validate_events_file
from repro.obs.trace import Tracer
from repro.parallel import sharded, shm
from repro.serve import ServingServer


#: A tiny ``repro train`` run; each test adds its epochs and flags.
TRAIN = ["train", "products", "--scale", "0.05", "--features", "8",
         "--hidden", "8"]


def _usage_error(argv, capsys, parse=main):
    """``parse(argv)`` exits 2; what it printed, ``(out, err)``."""
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr()


def _rules(tmp_path, text) -> str:
    """A rules file holding ``text``."""
    path = tmp_path / "rules.txt"
    path.write_text(text)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment", "tab3"])
        assert args.scale == 0.5 and not hasattr(args, "training")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_verbosity_counts(self):
        args = build_parser().parse_args(["-vv", "experiment", "tab3"])
        assert args.verbose == 2 and args.quiet == 0
        args = build_parser().parse_args(["-q", "experiment", "tab3"])
        assert args.quiet == 1

    def test_trace_flags_default_off(self):
        """No output file, metrics socket or rule engine unless asked (a
        switch's default is pinned by its row in ``test_cli_matrix``)."""
        args = build_parser().parse_args(["train", "products"])
        assert (args.trace, args.json, args.events, args.rules) == (None,) * 4
        assert args.serve_metrics is None
        assert build_parser().parse_args(["profile"]).serve_metrics is None
        args = build_parser().parse_args(["top", "x.jsonl"])
        assert args.metrics_url is None and args.rules is None

    @pytest.mark.parametrize("command", [
        ["train", "products"],
        ["bench-sharded"],
        ["profile"],
    ])
    def test_engine_flag(self, command, capsys):
        """One aggregation engine, so no flag to pick one."""
        assert not hasattr(build_parser().parse_args(command), "engine")
        for value in ("loop", "batched"):
            _usage_error(command + ["--engine", value], capsys,
                         build_parser().parse_args)

    @pytest.mark.parametrize("value", ["serial", "process"])
    def test_train_backend_needs_shards(self, value, capsys):
        """On ``train`` ``--backend`` picks the sharded runtime, so it is
        refused without ``--shards`` rather than silently ignored."""
        for extra in ([], ["--shards", "1"]):
            assert "--shards" in _usage_error(
                ["train", "products", "--backend", value] + extra, capsys).err

    @pytest.mark.parametrize("command,flag,value", [
        *[(["train", "products"], flag, value) for flag, value in (
            ("--scale", "-1"), ("--scale", "0"), ("--scale", "nan"),
            ("--scale", "inf"), ("--features", "0"),
            ("--hidden", "0"), ("--classes", "0"), ("--layers", "0"),
            ("--lr", "-1"), ("--epochs", "-3"), ("--dropout", "1.5"),
            ("--dropout", "1"), ("--dropout", "-0.1"))],
        *[(["serve", "products"], flag, value) for flag, value in (
            ("--scale", "0"), ("--features", "0"), ("--hidden", "0"),
            ("--classes", "0"), ("--layers", "0"), ("--lr", "0"),
            ("--epochs", "-1"))],
        *[(["bench-sharded"], flag, value) for flag, value in (
            ("--scale", "-1"), ("--features", "0"), ("--hidden", "0"),
            ("--classes", "0"), ("--layers", "0"), ("--lr", "0"))],
        *[(["profile"], flag, "0") for flag in (
            "--features", "--hidden", "--classes")],
        (["experiment", "tab3"], "--scale", "-1"),
    ])
    def test_out_of_range_numbers_are_usage_errors(
        self, command, flag, value, capsys
    ):
        """Refused at parse time (exit 2, the flag named on stderr),
        never a traceback or a run of something else."""
        assert flag in _usage_error(command + [f"{flag}={value}"], capsys).err

    @pytest.mark.parametrize("argv,flag", [
        (["top", "F", "--follow", "--interval", "-1"], "--interval"),
        *[(["profile", "--degree", value], "--degree")
          for value in ("-3", "0", "nan")],
        (["serve", "products", "--port", "-5"], "--port"),
        (["serve", "products", "--port", "70000"], "--port"),
        (["profile", "--serve-metrics", "-1"], "--serve-metrics"),
        # Delayed aggregation is deleted: its flag is unrecognized.
        (["train", "products", "--shards", "2", "--delay-aggregation", "0"],
         "--delay-aggregation"),
        (["bench-sharded", "products", "--delay-aggregation", "3"],
         "--delay-aggregation"),
        (["train", "products", "--delay-aggregation", "1"],
         "--delay-aggregation"),
        # Checked in main(), before the twin, features or model are built.
        (["train", "products", "--shards", "2", "--dropout", "0.3"],
         "--dropout"),
        # The value after an unknown flag fills the optional dataset;
        # the error still names the flag, not the dataset.
        (["bench-sharded", "--delay-aggregation", "3"], "--delay-aggregation"),
        (["serve", "--bogus", "3"], "--bogus"),
        # Checked in main(): each once ran and ignored the flag.
        (["train", "products", "--partition", "bfs"], "--partition"),
        (["loadgen", "http://127.0.0.1:9", "--sweep", "1", "2",
          "--rate", "5"], "--rate"),
        (["loadgen", "http://127.0.0.1:9", "--sweep", "1",
          "--concurrency", "3"], "--concurrency"),
    ])
    def test_values_refused_before_any_work(self, argv, flag, capsys):
        """Each once ended in a traceback, a bind error or a silent run
        of something else; now exit 2 with the flag on stderr."""
        assert flag in _usage_error(argv, capsys).err


class TestLoggingConfig:
    @pytest.mark.parametrize("verbosity,level", [
        (2, logging.DEBUG), (1, logging.INFO),
        (0, logging.WARNING), (-1, logging.ERROR),
    ])
    def test_levels(self, verbosity, level):
        _configure_logging(verbosity)
        assert logging.getLogger("repro").level == level

    def test_handler_installed_once(self):
        _configure_logging(0)
        _configure_logging(0)
        assert len(logging.getLogger("repro").handlers) == 1


class TestCommands:
    @pytest.mark.parametrize("name,present,absent", [
        pytest.param(
            "tab3", ["products mean degree", "twitter", "paper"], [],
            id="tab3"),
        pytest.param(
            "fig11a", ["products combined", "paper"], ["c-locality"],
            id="fig11a"),
        pytest.param(
            "fig11b", ["products combined", "products c-locality"], [],
            id="fig11b"),
        pytest.param(
            "tab4", ["products distgnn retiring", "memory-bound",
                     "DRAM-BW-bound", "fill-buffer-full"], [],
            id="tab4"),
    ])
    def test_experiment_paper_rows(self, name, present, absent, capsys):
        """Table 3, Figure 11 (c-locality is a training-only variant) and
        every Table-4 column the paper publishes."""
        assert main(["experiment", name, "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"== {name}:")
        for text in present:
            assert text in out
        for text in absent:
            assert text not in out

    def test_train(self, capsys):
        assert main(["train", "products", "--scale", "0.05", "--epochs", "2",
                     "--features", "16", "--hidden", "16"]) == 0
        assert "sparsity" in capsys.readouterr().out

    def test_train_seed_picks_the_graph(self, monkeypatch):
        """``--seed`` seeds the twin's generator as ``serve`` and
        ``bench-sharded`` do, so two seeds train on two graphs."""
        built = []
        real = graphs.load_dataset

        def recording(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(graphs, "load_dataset", recording)
        for seed in ("0", "1"):
            assert main([
                "train", "products", "--scale", "0.05", "--epochs", "0",
                "--seed", seed,
            ]) == 0
        first, second = built
        assert not np.array_equal(first.indices, second.indices)
        assert np.array_equal(first.indices, real("products", scale=0.05).indices)

    def test_train_default_runs_the_basic_kernel(self, tmp_path, capsys):
        """The all-default ``repro train`` aggregates both directions
        through the same kernel ``profile`` and perfbench measure."""
        report = tmp_path / "run.json"
        assert main([*TRAIN, "--epochs", "1", "--json", str(report)]) == 0
        assert "aggregation: basic kernel\n" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert "engine" not in doc["manifest"]["config"]
        names = {span["name"] for span in doc["spans"]}
        assert {"kernel.basic", "kernel.backward.basic"} <= names

    def test_experiment_fig3(self, capsys):
        assert main(["experiment", "fig3", "--scale", "0.1"]) == 0
        assert "retiring" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        out, err = _usage_error(["experiment", "fig99"], capsys)
        assert out == "" and "invalid choice: 'fig99'" in err

    def test_loadgen_sweep_keeps_the_timeout(self, capsys):
        """Each ``--sweep`` level runs with ``--timeout``: against a
        server that accepts connections and never answers, a 0.2 s
        timeout ends the sweep long before the 10 s default would."""
        with socket.socket() as silent:
            silent.bind(("127.0.0.1", 0))
            silent.listen()
            url = "http://127.0.0.1:%d" % silent.getsockname()[1]
            start = time.perf_counter()
            code = main(["loadgen", url, "--sweep", "1", "--duration", "0.1",
                         "--timeout", "0.2"])
            elapsed = time.perf_counter() - start
        assert code == 1  # every request timed out
        assert elapsed < 5.0
        assert "closed-loop x1" in capsys.readouterr().out

    def test_profile(self, tmp_path, capsys):
        trace, report = tmp_path / "t.jsonl", tmp_path / "r.json"
        assert main(["profile", "--vertices", "300", "--epochs", "1",
                     "--features", "8", "--hidden", "8",
                     "--trace", str(trace), "--json", str(report)]) == 0
        assert trace.exists() and report.exists()
        out = capsys.readouterr().out
        assert "lanes: " in out
        assert "span tree" in out
        assert "epoch" in out and "kernel.basic" in out
        assert "gathers" in out
        assert "== manifest ==" in out and "blas" in out


class TestShardedTraining:
    def test_bench_sharded_parser_defaults(self):
        args = build_parser().parse_args(["bench-sharded"])
        assert args.dataset == "products"
        assert args.scale == 10.0
        assert args.shards == [1, 2, 4]
        assert args.backend == "process"

    def test_train_sharded_runs(self, capsys):
        assert main([*TRAIN, "--epochs", "2", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "partition: greedy x2" in out
        assert "halo" in out

    @pytest.mark.parametrize("extra", [
        ["--events", "EVENTS"],
        ["--health"],
        ["--rules", "RULES"],
    ])
    def test_train_sharded_refuses_unsupported_flags(
        self, extra, tmp_path, capsys
    ):
        """The sharded trainer has no event log, health monitor or rule
        engine, so these are usage errors, not flags it drops."""
        events = tmp_path / "events.jsonl"
        rules = _rules(tmp_path, "loss_cap: train.loss < 1e9\n")
        extra = [{"EVENTS": str(events), "RULES": rules}.get(arg, arg)
                 for arg in extra]
        out, err = _usage_error(["train", "products", "--scale", "0.02",
                                 "--epochs", "1", "--shards", "2"] + extra,
                                capsys)
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--shards N > 1" in errors[0]
        assert extra[0] in errors[0]
        assert "Traceback" not in err and "note:" not in err
        assert "partition:" not in out
        assert not events.exists()

    def test_bench_sharded_prints_table(self, capsys):
        assert main(["bench-sharded", "products", "--scale", "0.05",
                     "--shards", "1", "2", "--epochs", "1", "--backend",
                     "serial", "--features", "8", "--hidden", "8"]) == 0
        out = capsys.readouterr().out
        assert "serial backend) ==" in out
        for shards in (1, 2):
            for row in ("epoch time", "throughput", "efficiency"):
                assert f"{shards} shards {row}" in out
            assert f"note: {shards} shards: cut" in out
        # Efficiency is relative to the smallest swept shard count.
        assert "1 shards efficiency      1.000 x" in out

    SHARDED_PROCESS_RUN = [
        *TRAIN, "--epochs", "2", "--shards", "2", "--backend", "process"]

    @staticmethod
    def _error_line(capsys) -> str:
        """The run's last stderr line, after checking nothing in stderr
        is a traceback."""
        err = capsys.readouterr().err
        assert "Traceback" not in err, err
        return err.strip().splitlines()[-1]

    def test_full_dev_shm_is_one_error_line(
        self, monkeypatch, capsys, no_leaked_resources
    ):
        class OnePage:
            f_bavail = 1
            f_frsize = 4096

        monkeypatch.setattr(shm.os, "statvfs", lambda path: OnePage())
        assert main(self.SHARDED_PROCESS_RUN) == 1
        line = self._error_line(capsys)
        assert line.startswith("error: shared-memory bundle needs")
        assert line.endswith("only 4096 bytes free")

    def test_dead_shard_worker_is_one_error_line(
        self, monkeypatch, capsys, no_leaked_resources
    ):
        real_reduce = sharded.shard_segment_reduce

        def die_in_worker_1(op, x):
            if multiprocessing.current_process().name == "shard-worker-1":
                os.kill(os.getpid(), signal.SIGKILL)
            return real_reduce(op, x)

        # Patched before main() forks, so the workers inherit it.
        monkeypatch.setattr(sharded, "shard_segment_reduce", die_in_worker_1)
        assert main(self.SHARDED_PROCESS_RUN) == 1
        line = self._error_line(capsys)
        assert line.startswith(
            f"error: shard worker 1 died (exit code {-signal.SIGKILL})"
        )


class TestObservabilityCommands:
    def test_train_events_health_and_report(self, tmp_path, capsys):
        events, report = tmp_path / "run.jsonl", tmp_path / "run.json"
        assert main(["train", "products", "--scale", "0.05", "--epochs", "2",
                     "--features", "16", "--hidden", "16", "--events", str(events),
                     "--health", "--json", str(report)]) == 0
        header, records = validate_events_file(str(events))
        assert header["manifest"]["command"] == "train"
        assert len(records) == 2
        assert records[0]["grad_norms"]
        doc = json.loads(report.read_text())
        assert len(doc["epoch_events"]) == 2
        assert doc["sparsity"]["per_layer"]
        out = capsys.readouterr().out
        assert "wrote 2 epoch events" in out
        assert "slo: ok (3 rule(s)" in out

    def test_train_epoch_lines_via_logging(self, capsys, caplog):
        # Satellite: epoch lines reach the console through the logging
        # layer, not print() — stdout carries only the summaries.
        assert main([*TRAIN, "--epochs", "1"]) == 0
        assert "epoch   0" not in capsys.readouterr().out
        epoch_lines = [
            r.message for r in caplog.records
            if r.name == "repro.nn.training" and "epoch   0" in r.message
        ]
        assert len(epoch_lines) == 1
        # `repro train` shows the lines without -v: the CLI raises the
        # training logger to INFO.
        assert logging.getLogger("repro.nn.training").level == logging.INFO


class TestLiveTelemetryCommands:
    def _train(self, tmp_path, *extra):
        events = tmp_path / "run.jsonl"
        code = main([*TRAIN, "--epochs", "2", "--events", str(events), *extra])
        return code, events

    def test_serve_metrics_scrapable_and_torn_down(self, tmp_path, capsys):
        # The endpoint announces its URL; after the command returns the
        # socket is closed and the serving thread is gone.
        code, _ = self._train(tmp_path, "--serve-metrics", "0")
        assert code == 0
        out = capsys.readouterr().out
        match = re.search(r"serving live metrics on (http://\S+)", out)
        assert match, out
        assert "repro-metrics-server" not in [
            t.name for t in threading.enumerate()
        ]
        with pytest.raises(OSError):
            urllib.request.urlopen(match.group(1) + "/metrics", timeout=0.5)

    def test_train_rules_in_report_and_events(self, tmp_path, capsys):
        rules = _rules(tmp_path, "loss_cap: train.loss < 1e-6\n")
        report = tmp_path / "run.json"
        code, _ = self._train(tmp_path, "--rules", rules, "--json", str(report))
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["alerts"]["ok"] is False
        assert doc["alerts"]["rules"][0]["name"] == "loss_cap"
        assert any(
            "slo:loss_cap" in e["health_issues"] for e in doc["epoch_events"]
        )
        snap = doc["metrics"]
        assert snap["alerts.fired"]["value"] >= 1.0
        assert "slo:" in capsys.readouterr().out

    def test_health_and_rules_mark_every_epoch(self, tmp_path, capsys):
        # One engine over the default and the file's rules: every epoch
        # keeps the file rule's marker, and the divergence --lr 10 causes
        # at epoch 1 adds the default rule's and stops the run.
        rules = _rules(tmp_path, "always: train.loss < 1e-9\n")
        code, events = self._train(
            tmp_path, "--health", "--rules", rules, "--lr", "10")
        assert code == 1
        err = capsys.readouterr().err
        assert "fatal rule fired at epoch 1" in err
        assert "loss_divergence" in err
        _, records = validate_events_file(str(events))
        assert [r["health_issues"] for r in records] == [
            ["slo:always"], ["slo:loss_divergence", "slo:always"],
        ]

    def test_fatal_rule_stops_the_run(self, tmp_path, capsys):
        rules = _rules(tmp_path, "stop: train.loss < 1e-9 fatal\n")
        code, events = self._train(tmp_path, "--rules", rules)
        assert code == 1
        assert "training stopped: fatal rule fired at epoch 0" in (
            capsys.readouterr().err
        )
        _, records = validate_events_file(str(events))
        assert [r["health_issues"] for r in records] == [["slo:stop"]]

    @pytest.mark.parametrize("report", [False, True], ids=["plain", "json"])
    def test_kernel_rule_reads_the_registry_with_or_without_outputs(
        self, report, tmp_path, capsys, no_leaked_resources
    ):
        """A rule judges the live registry whether or not an output file
        was asked for: the same fatal kernel-counter rule stops both."""
        rules = _rules(tmp_path, "k: kernel.basic.gathers < 1 fatal\n")
        extra = ["--json", str(tmp_path / "run.json")] if report else []
        code, _ = self._train(tmp_path, "--rules", rules, *extra)
        assert code == 1
        assert "kernel.basic.gathers" in capsys.readouterr().err

    def test_serve_check_judges_traffic_without_telemetry_flags(
        self, tmp_path, monkeypatch, capsys, no_leaked_resources
    ):
        """``serve --rules --check`` with no ``--trace`` / ``--json`` /
        ``--serve-metrics``: one request is enough for a rule on
        ``serve.requests`` to fire and the run to exit 1."""
        enter = ServingServer.__enter__

        def enter_and_ask(server):
            enter(server)
            server.service.query([1])  # in-process: counted like HTTP
            return server

        monkeypatch.setattr(ServingServer, "__enter__", enter_and_ask)
        rules = _rules(tmp_path, "traffic: serve.requests < 1\n")
        assert main([
            "serve", "products", "--scale", "0.02", "--epochs", "0",
            "--features", "8", "--hidden", "8", "--port", "0",
            "--duration", "1.5", "--rules", rules, "--check",
        ]) == 1
        out = capsys.readouterr().out
        assert "served 1 request(s)" in out and "traffic" in out

    @pytest.mark.parametrize("text", [
        "fired: train.loss < 1\n",  # a reserved alerts.* name
        "non_finite: train.loss < 1\n",  # clashes with a --health rule
    ])
    def test_train_rejects_rule_names_at_load(self, text, tmp_path, capsys):
        code, events = self._train(
            tmp_path, "--health", "--rules", _rules(tmp_path, text))
        assert code == 2
        assert "rules.txt" in capsys.readouterr().err
        assert not events.exists()  # refused before any work

    def test_train_rejects_bad_rules_file(self, tmp_path, capsys):
        code, _ = self._train(tmp_path, "--rules", _rules(tmp_path, "not a rule\n"))
        assert code == 2
        assert "rules.txt" in capsys.readouterr().err

    def test_top_once_renders_run(self, tmp_path, capsys):
        code, events = self._train(tmp_path)
        capsys.readouterr()
        assert main(["top", str(events)]) == 0  # one frame by default
        out = capsys.readouterr().out
        assert "== repro top ==" in out
        assert "epoch    1" in out
        assert "loss" in out

    def test_top_accepts_run_directory(self, tmp_path, capsys):
        self._train(tmp_path)
        capsys.readouterr()
        assert main(["top", str(tmp_path)]) == 0
        assert "epoch    1" in capsys.readouterr().out

    def test_top_check_exit_codes(self, tmp_path, capsys):
        _, events = self._train(tmp_path)
        firing = tmp_path / "firing.txt"
        firing.write_text("loss_cap: train.loss < 1e-6\n")
        quiet = tmp_path / "quiet.txt"
        quiet.write_text("loss_cap: train.loss < 1e9\n")
        assert main(
            ["top", str(events), "--check", "--rules", str(quiet)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["top", str(events), "--check", "--rules", str(firing)]
        ) == 1
        err = capsys.readouterr().err
        assert "loss_cap" in err

    def test_top_check_requires_rules(self, tmp_path, capsys):
        _, events = self._train(tmp_path)
        capsys.readouterr()
        assert main(["top", str(events), "--check"]) == 2
        assert "--rules" in capsys.readouterr().err

    def test_serve_check_requires_rules(self, capsys):
        """``--no-rules`` without ``--rules`` leaves ``--check`` nothing
        to check: refused like ``top --check`` without rules, before
        any training."""
        assert main([
            "serve", "products", "--scale", "0.02", "--epochs", "0",
            "--port", "0", "--duration", "0.1", "--no-rules", "--check",
        ]) == 2
        captured = capsys.readouterr()
        assert "--check" in captured.err and "--no-rules" in captured.err
        assert "serving inference" not in captured.out

    @pytest.mark.parametrize("flag", [["--interval", "5"],
                                      ["--refresh-limit", "3"]])
    def test_top_pacing_needs_follow(self, tmp_path, flag, capsys):
        """One frame is the default, so a pace without ``--follow``
        would be ignored: it is a usage error naming the flag."""
        err = _usage_error(["top", str(tmp_path), *flag], capsys).err
        assert f"{flag[0]} paces --follow" in err

    def test_top_nothing_to_watch(self, tmp_path, capsys):
        assert main(["top", str(tmp_path)]) == 2
        assert "nothing to watch" in capsys.readouterr().err

    def test_top_follow_bounded(self, tmp_path, capsys):
        _, events = self._train(tmp_path)
        capsys.readouterr()
        assert main([
            "top", str(events), "--follow", "--refresh-limit", "2",
            "--interval", "0",
        ]) == 0
        assert "== repro top ==" in capsys.readouterr().out



#: One small run per command, so a flag the parser fails to check costs
#: seconds, not a default-sized run or a server that never exits.
_SMALL_RUNS = {
    "train": ["train", "products", "--scale", "0.02", "--epochs", "1"],
    "bench-sharded": ["bench-sharded", "--scale", "0.02", "--shards", "1",
                      "--epochs", "1", "--backend", "serial"],
    "profile": ["profile", "--vertices", "50", "--epochs", "1"],
    "serve": ["serve", "--scale", "0.02", "--epochs", "0", "--port", "0",
              "--duration", "0.1"],
    "loadgen": ["loadgen", "http://127.0.0.1:9", "--duration", "0.1"],
}

_OUTPUT_FLAGS = [
    ("train", flag) for flag in ("--trace", "--json", "--events")
] + [
    (command, flag)
    for command in ("bench-sharded", "profile", "serve")
    for flag in ("--trace", "--json")
] + [("loadgen", "--out")]


class TestLaneReport:
    """``train`` and ``serve`` print the lane count and the BLAS thread
    settings the lane split assumes (one BLAS thread per lane)."""

    @pytest.mark.parametrize("command", [
        _SMALL_RUNS["train"] + ["--features", "8", "--hidden", "8"],
        _SMALL_RUNS["serve"] + ["--features", "8", "--hidden", "8"],
    ])
    def test_prints_lanes_and_blas_threads(self, command, monkeypatch, capsys):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert main(command) == 0
        expected = (
            f"lanes: {lanes.lane_count()} (OPENBLAS_NUM_THREADS=1, "
            "OMP_NUM_THREADS=2, MKL_NUM_THREADS=unset)"
        )
        assert capsys.readouterr().out.splitlines().count(expected) == 1


class TestOutputPathChecked:
    """A file flag whose directory does not exist is refused while the
    arguments are parsed: exit 2 and one ``error:`` line, before any
    graph is generated, instead of a traceback after the run."""

    @pytest.mark.parametrize("command,flag", _OUTPUT_FLAGS)
    def test_missing_directory_is_a_usage_error(
        self, command, flag, tmp_path, capsys, caplog
    ):
        missing = tmp_path / "no-such-dir" / "out.json"
        out, err = _usage_error(_SMALL_RUNS[command] + [flag, str(missing)],
                                capsys)
        assert "Traceback" not in err
        line = err.strip().splitlines()[-1]
        assert line.startswith(f"repro {command}: error: argument ")
        assert line.endswith(f"{str(missing.parent)!r} does not exist")
        assert "epoch" not in out
        assert not [r for r in caplog.records if "epoch" in r.getMessage()]
        assert not missing.parent.exists()


class TestOutputWriteFailure:
    """A telemetry file that cannot be written (a full disk) is one
    ``error:`` line and exit 1; the other outputs are still written."""

    @staticmethod
    def _no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    @pytest.mark.parametrize("command", [
        _SMALL_RUNS["train"] + ["--features", "8", "--hidden", "8"],
        _SMALL_RUNS["profile"],
    ])
    def test_failed_trace_write_still_writes_the_rest(
        self, command, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setattr(Tracer, "export_jsonl", self._no_space)
        trace, report = tmp_path / "a", tmp_path / "b"
        code = main(command + ["--trace", str(trace), "--json", str(report)])
        assert code == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            f"error: could not write {trace}: {os.strerror(errno.ENOSPC)}"
        ]
        assert not trace.exists()
        assert report.exists() and f"wrote run report to {report}" in out

    def test_profile_serve_metrics_starts_the_resource_sampler(
        self, tmp_path, capsys
    ):
        """``profile`` runs inside the shared telemetry block, so
        ``--serve-metrics`` samples proc.* as it does on every command."""
        report = tmp_path / "r.json"
        code = main(_SMALL_RUNS["profile"] + [
            "--serve-metrics", "0", "--json", str(report),
        ])
        assert code == 0
        assert "serving live metrics on http://" in capsys.readouterr().out
        metrics = json.loads(report.read_text())["metrics"]
        assert "proc.rss_bytes" in metrics


class TestBoundPort:
    """A port another socket holds is one ``error: cannot bind`` line on
    stderr and exit 1, for the metrics endpoint and for serving alike:
    no traceback, and no sampler, batcher or server thread left."""

    @pytest.mark.parametrize("command,flag", [
        ("train", "--serve-metrics"), ("profile", "--serve-metrics"),
        ("serve", "--serve-metrics"), ("serve", "--port"),
    ])
    def test_bound_port_is_one_error_line(
        self, command, flag, capsys, no_leaked_resources
    ):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            code = main(_SMALL_RUNS[command] + [
                "--features", "8", "--hidden", "8", flag, str(port)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot bind 127.0.0.1:{port}: "), err
        assert err.count("\n") == 1, err


#: The telemetry flags each command accepts; every other one is refused
#: (``--perfetto`` and ``--sample-proc`` are deleted, so no command
#: accepts them).
_TELEMETRY_FLAG_SETS = {
    "train": {"--trace", "--json", "--serve-metrics"},
    "bench-sharded": {"--trace", "--json"},
    "profile": {"--trace", "--json", "--serve-metrics"},
    "serve": {"--trace", "--json", "--serve-metrics"},
}


@pytest.mark.parametrize("command", sorted(_TELEMETRY_FLAG_SETS))
@pytest.mark.parametrize("flag", [
    "--trace", "--json", "--perfetto", "--serve-metrics", "--sample-proc",
])
def test_telemetry_flag_sets(command, flag, tmp_path, capsys):
    value = [] if flag == "--sample-proc" else (
        ["0"] if flag == "--serve-metrics" else [str(tmp_path / "out")]
    )
    argv = _SMALL_RUNS[command] + [flag] + value
    if flag in _TELEMETRY_FLAG_SETS[command]:
        build_parser().parse_args(argv)
    else:
        _usage_error(argv, capsys, build_parser().parse_args)


class TestServeSignals:
    @pytest.mark.parametrize("signame", ["SIGTERM", "SIGINT"])
    def test_signal_is_a_drain_with_exit_0_and_a_trace(self, tmp_path, signame):
        """``repro serve`` answers a request over a keep-alive connection
        that is still open when the signal lands; it drains, writes the
        trace and exits 0 (SIGTERM used to exit -15 with no trace)."""
        trace = tmp_path / "serve_trace.jsonl"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "products",
             "--scale", "0.02", "--epochs", "1", "--features", "8",
             "--hidden", "8", "--port", "0", "--duration", "120",
             "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        try:
            for line in proc.stdout:
                match = re.search(r"serving inference on (http://\S+)", line)
                if match:
                    break
            else:
                pytest.fail("server never announced its URL")
            conn = http.client.HTTPConnection(
                urlsplit(match.group(1)).netloc, timeout=30
            )
            conn.request("GET", "/v1/predict?vertex=1")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
            proc.send_signal(getattr(signal, signame))  # conn is open and idle
            output = proc.stdout.read()
            assert proc.wait(timeout=60) == 0, output
            conn.close()
        finally:
            proc.kill()
            proc.stdout.close()
        assert "served 1 request(s)" in output
        assert "Traceback" not in output
        _, records = read_trace(str(trace))
        assert any(r.get("name") == "serve.request" for r in records)


def test_closed_pipe_is_exit_1_without_a_traceback():
    """``repro experiment tab3 | head -1``: a reader that closed the pipe
    before the table was printed ends the run with exit 1, not a
    ``BrokenPipeError`` traceback."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "experiment", "tab3", "--scale", "0.05"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    proc.stdout.close()  # long before the interpreter has started
    assert proc.wait(timeout=60) == 1
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err
