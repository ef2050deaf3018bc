"""Unit tests for the command-line interface."""

import logging

import pytest

from repro import __version__
from repro.cli import _configure_logging, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_defaults(self):
        args = build_parser().parse_args(["datasets"])
        assert args.scale == 0.5

    def test_speedup_validates_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["speedup", "reddit"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_verbosity_counts(self):
        args = build_parser().parse_args(["-vv", "datasets"])
        assert args.verbose == 2 and args.quiet == 0
        args = build_parser().parse_args(["-q", "datasets"])
        assert args.quiet == 1

    def test_trace_flags_default_off(self):
        args = build_parser().parse_args(["train", "products"])
        assert args.trace is None and args.json is None

    @pytest.mark.parametrize("command", [
        ["train", "products"],
        ["bench-parallel", "products"],
        ["profile"],
    ])
    def test_engine_flag(self, command):
        """One aggregation engine, so no flag to pick one."""
        assert not hasattr(build_parser().parse_args(command), "engine")
        for value in ("loop", "batched"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(command + ["--engine", value])
            assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", [
        ["bench-parallel", "products"],
        ["profile"],
    ])
    def test_executor_takes_no_backend_flag(self, command):
        """The chunk executor is one in-process runtime: ``--workers`` only."""
        args = build_parser().parse_args(command)
        assert not hasattr(args, "backend")
        for value in ("serial", "thread", "process"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(command + ["--backend", value])
            assert excinfo.value.code == 2

    @pytest.mark.parametrize("value", ["serial", "thread", "process"])
    def test_train_backend_needs_shards(self, value, capsys):
        """On ``train`` ``--backend`` picks the sharded runtime, so it is
        refused without ``--shards`` rather than silently ignored."""
        for extra in ([], ["--shards", "1"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["train", "products", "--backend", value] + extra)
            assert excinfo.value.code == 2
            assert "--shards" in capsys.readouterr().err

    def test_serve_rejects_nonpositive_fanout(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "products", "--fanout", "2", "-1"])
        assert excinfo.value.code == 2
        assert "positive" in capsys.readouterr().err

    def test_engine_flag_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "products", "--engine", "turbo"])

    def test_train_observability_flags_default_off(self):
        args = build_parser().parse_args(["train", "products"])
        assert args.events is None
        assert args.health is False
        assert args.sample_proc is False

    def test_train_observability_flags_parse(self):
        args = build_parser().parse_args([
            "train", "products", "--events", "e.jsonl", "--health",
            "--sample-proc",
        ])
        assert args.events == "e.jsonl"
        assert args.health is True
        assert args.sample_proc is True

    def test_dashboard_defaults(self):
        args = build_parser().parse_args(["dashboard", "run.jsonl"])
        assert args.events == "run.jsonl"
        assert args.output == "run_dashboard.html"
        assert args.report is None and args.history is None


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
    def test_datasets(self, capsys):
        assert main(["datasets", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "products" in out and "paper:" in out

    def test_speedup_inference(self, capsys):
        assert main(["speedup", "products", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "combined" in out
        assert "c-locality" not in out  # training-only variant

    def test_speedup_training_includes_locality(self, capsys):
        assert main(["speedup", "products", "--scale", "0.1", "--training"]) == 0
        assert "c-locality" in capsys.readouterr().out

    def test_characterize(self, capsys):
        assert main(["characterize", "products", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Retiring" in out and "FillBufFull" in out

    def test_train(self, capsys):
        code = main([
            "train", "products", "--scale", "0.05", "--epochs", "2",
            "--features", "16", "--hidden", "16",
        ])
        assert code == 0
        assert "sparsity" in capsys.readouterr().out

    def test_train_default_runs_the_basic_kernel(self, tmp_path, capsys):
        """The all-default ``repro train`` aggregates both directions
        through the same kernel ``profile`` and perfbench measure."""
        import json

        report = tmp_path / "run.json"
        code = main([
            "train", "products", "--scale", "0.05", "--epochs", "1",
            "--features", "8", "--hidden", "8", "--json", str(report),
        ])
        assert code == 0
        assert "basic kernel x1" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert "engine" not in doc["meta"]
        names = {span["name"] for span in doc["spans"]}
        assert {"kernel.basic", "kernel.backward.basic"} <= names

    def test_experiment_fig3(self, capsys):
        assert main(["experiment", "fig3", "--scale", "0.1"]) == 0
        assert "retiring" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_profile(self, capsys):
        code = main([
            "profile", "--vertices", "300", "--epochs", "1",
            "--features", "8", "--hidden", "8", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "epoch" in out and "worker" in out
        assert "gathers" in out
        assert "repro_version" in out

    def test_profile_writes_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        report = tmp_path / "r.json"
        code = main([
            "profile", "--vertices", "200", "--epochs", "1",
            "--features", "8", "--hidden", "8",
            "--trace", str(trace), "--json", str(report),
        ])
        assert code == 0
        assert trace.exists() and report.exists()

    def test_bench_parallel_trace(self, tmp_path, capsys):
        trace = tmp_path / "bench.jsonl"
        code = main([
            "bench-parallel", "products", "--scale", "0.05",
            "--workers", "1", "2", "--trace", str(trace),
        ])
        assert code == 0
        assert trace.exists()
        assert "wrote" in capsys.readouterr().out

    def test_bench_parallel_history(self, tmp_path, capsys):
        """``--history`` appends one row of the sweep's span totals; the
        default label is the one the committed baseline rows carry."""
        import json

        history = tmp_path / "hist.jsonl"
        sweep = [
            "bench-parallel", "products", "--scale", "0.05",
            "--workers", "1", "--history", str(history),
        ]
        assert main(sweep + ["--history-label", "cli-test"]) == 0
        assert "appended history entry 'cli-test'" in capsys.readouterr().out
        assert main(sweep) == 0
        first, second = [
            json.loads(line) for line in history.read_text().splitlines()
        ]
        assert first["label"] == "cli-test"
        assert second["label"] == "bench-parallel-batched"
        # Span totals only, so the perf gate can compare the row
        # like-for-like with earlier entries.
        assert "span.kernel.basic.total_s" in first["metrics"]
        assert not any(name.startswith("train.") for name in first["metrics"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(sweep + ["--train-epochs", "2"])


class TestShardedTraining:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["train", "products"])
        assert args.shards == 1
        assert args.partition == "greedy"
        assert args.delay_aggregation == []
        assert args.halo_refresh == 8

    def test_bench_sharded_parser_defaults(self):
        args = build_parser().parse_args(["bench-sharded"])
        assert args.dataset == "products"
        assert args.scale == 10.0
        assert args.shards == [1, 2, 4]
        assert args.backend == "process"

    def test_train_sharded_runs(self, capsys):
        code = main([
            "train", "products", "--scale", "0.05", "--epochs", "2",
            "--features", "8", "--hidden", "8", "--shards", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "partition: greedy x2" in out
        assert "halo" in out

    def test_train_sharded_rejects_dropout(self, capsys):
        code = main([
            "train", "products", "--scale", "0.05", "--epochs", "1",
            "--features", "8", "--hidden", "8", "--shards", "2",
            "--dropout", "0.3",
        ])
        assert code == 2
        assert "dropout" in capsys.readouterr().err

    def test_train_sharded_json_report_has_shard_metrics(self, tmp_path):
        import json

        report = tmp_path / "sharded.json"
        code = main([
            "train", "products", "--scale", "0.05", "--epochs", "2",
            "--features", "8", "--hidden", "8", "--shards", "2",
            "--backend", "process", "--json", str(report),
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        for key in (
            "shard.workers",
            "shard.halo_bytes",
            "shard.epoch_time_s",
            "shard.setup_bytes_max",
            "shard.partition.cut_fraction",
        ):
            assert key in doc["metrics"], f"missing {key}"
        span_names = {s["name"] for s in doc["spans"]}
        assert "shard.partition" in span_names
        assert "shard.epoch" in span_names

    def test_bench_sharded_appends_gateable_history(self, tmp_path, capsys):
        import json

        history = tmp_path / "hist.jsonl"
        code = main([
            "bench-sharded", "products", "--scale", "0.05",
            "--shards", "1", "2", "--epochs", "1", "--backend", "serial",
            "--features", "8", "--hidden", "8",
            "--history", str(history),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "efficiency" in out
        rows = [
            json.loads(line) for line in history.read_text().splitlines()
        ]
        assert len(rows) == 1
        assert rows[0]["label"] == "bench-parallel-sharded"
        metrics = rows[0]["metrics"]
        assert "sharded.shards1.epochs_per_s" in metrics
        assert "sharded.shards2.efficiency" in metrics
        assert "sharded.partition.cut_fraction" in metrics
        # The fresh label gates trivially: the row is a usable baseline.
        assert main([
            "compare", "--history", str(history),
            "--label", "bench-parallel-sharded",
        ]) == 0


class TestObservabilityCommands:
    def test_train_events_health_and_report(self, tmp_path, capsys):
        from repro.obs.events import validate_events_file

        events = tmp_path / "run.jsonl"
        report = tmp_path / "run.json"
        code = main([
            "train", "products", "--scale", "0.05", "--epochs", "2",
            "--features", "16", "--hidden", "16",
            "--events", str(events), "--health", "--json", str(report),
        ])
        assert code == 0
        header, records = validate_events_file(str(events))
        assert header["run"]["command"] == "train"
        assert len(records) == 2
        assert records[0]["sparsity"]  # per-layer sparsity present
        assert records[0]["grad_norms"]
        import json

        doc = json.loads(report.read_text())
        assert len(doc["epoch_events"]) == 2
        assert doc["sparsity"]["per_layer"]
        out = capsys.readouterr().out
        assert "wrote 2 epoch events" in out
        assert "health: ok" in out

    def test_train_epoch_lines_via_logging(self, capsys, caplog):
        # Satellite: epoch lines reach the console through the logging
        # layer, not print() — stdout carries only the summaries.
        code = main([
            "train", "products", "--scale", "0.05", "--epochs", "1",
            "--features", "8", "--hidden", "8",
        ])
        assert code == 0
        assert "epoch   0" not in capsys.readouterr().out
        epoch_lines = [
            r.message for r in caplog.records
            if r.name == "repro.nn.training" and "epoch   0" in r.message
        ]
        assert len(epoch_lines) == 1
        # `repro train` shows the lines without -v: the CLI raises the
        # training logger to INFO.
        assert logging.getLogger("repro.nn.training").level == logging.INFO

    def test_train_sample_proc(self, capsys):
        code = main([
            "train", "products", "--scale", "0.05", "--epochs", "1",
            "--features", "8", "--hidden", "8", "--sample-proc",
        ])
        assert code == 0
        assert "peak RSS" in capsys.readouterr().out

    def test_dashboard_end_to_end(self, tmp_path, capsys):
        events = tmp_path / "run.jsonl"
        html_path = tmp_path / "run.html"
        assert main([
            "train", "products", "--scale", "0.05", "--epochs", "2",
            "--features", "8", "--hidden", "8", "--events", str(events),
        ]) == 0
        code = main(["dashboard", str(events), "-o", str(html_path)])
        assert code == 0
        html = html_path.read_text()
        assert "<script" not in html.lower()
        assert "https://" not in html
        assert "Training loss" in html

    def test_dashboard_rejects_invalid_events(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "events_header", "schema": 1}\n'
                       '{"kind": "epoch", "schema": 1}\n')
        code = main(["dashboard", str(bad), "-o", str(tmp_path / "x.html")])
        assert code == 2
        assert "missing field" in capsys.readouterr().err

    def test_dashboard_needs_an_input(self, capsys):
        assert main(["dashboard"]) == 2
        assert "need an events file" in capsys.readouterr().err


class TestLiveTelemetryCommands:
    def _train(self, tmp_path, *extra):
        events = tmp_path / "run.jsonl"
        code = main([
            "train", "products", "--scale", "0.05", "--epochs", "2",
            "--features", "8", "--hidden", "8", "--events", str(events),
            *extra,
        ])
        return code, events

    def test_serve_metrics_scrapable_and_torn_down(self, tmp_path, capsys):
        # The endpoint announces its URL; after the command returns the
        # socket is closed and the serving thread is gone.
        import re
        import threading
        import urllib.request

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
        import json

        rules = tmp_path / "rules.txt"
        rules.write_text("loss_cap: train.loss < 1e-6\n")
        report = tmp_path / "run.json"
        code, events = self._train(
            tmp_path, "--rules", str(rules), "--json", str(report)
        )
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

    def test_train_rejects_bad_rules_file(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("not a rule\n")
        code, _ = self._train(tmp_path, "--rules", str(rules))
        assert code == 2
        assert "rules.txt" in capsys.readouterr().err

    def test_top_once_renders_run(self, tmp_path, capsys):
        code, events = self._train(tmp_path)
        capsys.readouterr()
        assert main(["top", str(events), "--once"]) == 0
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

    def test_top_flags_default_off(self):
        args = build_parser().parse_args(["top", "x.jsonl"])
        assert args.follow is False and args.check is False
        assert args.metrics_url is None and args.rules is None
        assert args.interval == 1.0 and args.refresh_limit is None

    def test_serve_metrics_flag_parses_everywhere(self):
        for command in (
            ["train", "products"],
            ["bench-parallel", "products"],
            ["profile"],
        ):
            args = build_parser().parse_args(command + ["--serve-metrics", "0"])
            assert args.serve_metrics == 0
            args = build_parser().parse_args(command)
            assert args.serve_metrics is None


class TestProfilingCommands:
    def test_sampling_flags_parse(self):
        for command in (["train", "products"], ["profile"]):
            args = build_parser().parse_args(command)
            assert args.sampling is None and args.flame is None
            args = build_parser().parse_args(command + ["--sampling", "50"])
            assert args.sampling == 50.0

    def test_sampling_rejects_nonpositive_rate(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--sampling", "0"])

    def test_profile_diff_parses_as_subcommand(self):
        args = build_parser().parse_args(["profile", "diff", "a.json", "b.json"])
        assert args.baseline == "a.json" and args.candidate == "b.json"
        assert args.threshold == 0.25 and args.min_seconds == 0.02

    def test_profile_sampling_prints_phase_table_and_flame(
        self, tmp_path, capsys
    ):
        flame = tmp_path / "flame.folded"
        report = tmp_path / "run.json"
        code = main([
            "profile", "--vertices", "300", "--epochs", "2",
            "--features", "16", "--hidden", "16", "--workers", "2",
            "--sampling", "400", "--flame", str(flame),
            "--json", str(report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sampled profile" in out
        assert "phase" in out and "samples" in out
        assert flame.exists()
        import json as json_module

        doc = json_module.loads(report.read_text())
        assert doc["profile"]["hz"] == 400.0
        assert doc["meta"]["sampling_hz"] == 400.0
        assert "span_phase_seconds" in doc
        # Every flame line is "phase;frame;... count".
        for line in flame.read_text().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) >= 0

    def test_train_flame_implies_sampling(self, tmp_path, capsys):
        flame = tmp_path / "train.folded"
        code = main([
            "train", "products", "--scale", "0.02", "--epochs", "1",
            "--features", "8", "--hidden", "8", "--flame", str(flame),
        ])
        assert code == 0
        assert "sampled profile" in capsys.readouterr().out
        assert flame.exists()

    def test_profile_diff_exit_codes(self, tmp_path, capsys):
        import json as json_module
        import os

        data_dir = os.path.join(os.path.dirname(__file__), "data")
        baseline = os.path.join(data_dir, "profile_baseline.json")
        regressed = os.path.join(data_dir, "profile_regressed.json")
        assert main(["profile", "diff", baseline, baseline]) == 0
        assert "verdict: OK" in capsys.readouterr().out
        assert main(["profile", "diff", baseline, regressed]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        # A document without a sampled profile is a usage error (2).
        bare = tmp_path / "noprofile.json"
        bare.write_text(json_module.dumps({"schema": 1, "spans": []}))
        assert main(["profile", "diff", baseline, str(bare)]) == 2
        assert "no sampled profile" in capsys.readouterr().err

    def test_profile_diff_missing_file_is_usage_error(self, capsys):
        assert main(["profile", "diff", "/nonexistent/a.json", "/nonexistent/b.json"]) == 2
        assert "profile diff:" in capsys.readouterr().err


class TestServeSignals:
    @pytest.mark.parametrize("signame", ["SIGTERM", "SIGINT"])
    def test_signal_is_a_drain_with_exit_0_and_a_trace(self, tmp_path, signame):
        """``repro serve`` answers a request over a keep-alive connection
        that is still open when the signal lands; it drains, writes the
        trace and exits 0 (SIGTERM used to exit -15 with no trace)."""
        import http.client
        import os
        import re
        import signal
        import subprocess
        import sys
        from urllib.parse import urlsplit

        import repro
        from repro.obs import read_trace

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
