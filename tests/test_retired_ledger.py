"""The second performance ledger, the thread shard backend, the
sampling profiler, the chunk executor, the consumer-less telemetry
outputs (dashboard, Perfetto export, ``--attrib``, ``--sample-proc``),
the commands that re-printed ``repro experiment`` rows (``datasets``,
``speedup``, ``characterize``), the variant kernel classes with
``profile --kernel``, the sharded trainer's delayed aggregation, the
paper plane's second experiment table (``experiment --training``,
``run_all.py --only / --timestamp``) and the knobs no workload set
(``serve --fanout / --max-batch / --max-queue``, ``top --once``) are
deleted, not defaulted:
perfbench is the only judge of speed, the span plane is the only phase
breakdown, lanes are the only in-process parallelism, every telemetry
output left has a reader, each paper artifact has one command and one
plan entry, the value plane runs one aggregation kernel while the cost
model prices the paper's variants, sharded training is exact, and every
served row is exact.

argparse accepts any unambiguous prefix of a long option, so ``--history``
exiting 2 also proves that no ``--history-...`` option is left on that
command.
"""

import importlib
import importlib.util
import inspect

import pytest

import repro.obs
from repro.cli import main


#: One small run per command, so a flag the parser fails to refuse
#: costs seconds, not a default-sized run or a server that never exits.
_SMALL_RUNS = {
    "train": ["train", "products", "--scale", "0.02", "--epochs", "1"],
    "profile": ["profile", "--vertices", "50", "--epochs", "1"],
    "serve": ["serve", "products", "--scale", "0.02", "--epochs", "0",
              "--port", "0", "--duration", "0.1"],
}


def _exit_code(argv) -> int:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code


class TestSecondLedgerIsGone:
    @pytest.mark.parametrize("argv", [
        ["compare"],
        ["compare", "--history", "BENCH_history.jsonl"],
        ["bench-serve", "products"],
        ["profile", "diff", "a.json", "b.json"],
    ])
    def test_retired_commands_exit_2(self, argv, capsys):
        assert _exit_code(argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["bench-sharded", "products"],
    ])
    def test_no_history_flag(self, command, tmp_path, capsys):
        assert _exit_code(command + [f"--history={tmp_path / 'h.jsonl'}"]) == 2
        assert "unrecognized arguments: --history" in capsys.readouterr().err
        assert not (tmp_path / "h.jsonl").exists()

    @pytest.mark.parametrize("flag", ["--history", "--dashboard"])
    def test_run_all_writes_no_history(self, flag, run_all, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_all.main([str(tmp_path / "out.md"), flag, str(tmp_path / "f")])
        assert excinfo.value.code == 2
        assert not (tmp_path / "out.md").exists()

    def test_obs_has_no_history_module(self):
        assert importlib.util.find_spec("repro.obs.history") is None
        assert not [name for name in dir(repro.obs) if "history" in name.lower()]

    def test_profiler_has_no_diff_engine(self):
        assert importlib.util.find_spec("repro.obs.profiler") is None
        for name in ("ProfileDiff", "DiffRow", "load_profile_document"):
            assert not hasattr(repro.obs, name)


class TestThreadShardBackendIsGone:
    @pytest.mark.parametrize("command", [
        ["train", "products", "--shards", "2"],
        ["bench-sharded"],
    ])
    def test_backend_thread_exits_2(self, command, capsys):
        assert _exit_code(command + ["--backend", "thread"]) == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err


class TestSamplingProfilerIsGone:
    @pytest.mark.parametrize("command", [
        ["train", "products", "--scale", "0.02", "--epochs", "1"],
        ["profile", "--vertices", "50", "--epochs", "1"],
    ])
    @pytest.mark.parametrize("flag", [["--sampling", "97"], ["--flame", "F"]])
    def test_sampling_flags_exit_2(self, command, flag, tmp_path, capsys):
        out = tmp_path / "flame.folded"
        flag = [str(out) if arg == "F" else arg for arg in flag]
        assert _exit_code(command + flag) == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_obs_exports_no_profiler(self):
        assert not [
            name for name in dir(repro.obs)
            if "profil" in name.lower() or "stack_names" in name
        ]
        for tracer in (repro.obs.Tracer(), repro.obs.NULL_TRACER):
            assert not hasattr(tracer, "stack_names")
            assert not hasattr(tracer, "_by_thread")

    def test_run_report_takes_no_profile(self):
        params = inspect.signature(repro.obs.build_run_report).parameters
        assert "profile" not in params
        report = repro.obs.build_run_report()
        assert "profile" not in report and "span_phase_seconds" not in report


class TestChunkExecutorIsGone:
    def test_bench_parallel_exits_2(self, capsys):
        assert _exit_code(["bench-parallel", "products"]) == 2
        assert "invalid choice: 'bench-parallel'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["train", "products", "--scale", "0.02", "--epochs", "1"],
        ["profile", "--vertices", "50", "--epochs", "1"],
    ])
    def test_workers_flag_exits_2(self, command, capsys):
        assert _exit_code(command + ["--workers", "2"]) == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize("module", ["executor", "plan", "workload"])
    def test_chunk_modules_cannot_be_imported(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(f"repro.parallel.{module}")


class TestConsumerlessTelemetryIsGone:
    def test_dashboard_exits_2(self, capsys):
        assert _exit_code(["dashboard", "events.jsonl"]) == 2
        assert "invalid choice: 'dashboard'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        ("train", "--perfetto F"),
        ("profile", "--perfetto F"),
        ("serve", "--perfetto F"),
        ("profile", "--attrib F"),
        ("train", "--sample-proc"),
        ("serve", "--sample-proc"),
    ])
    def test_output_flags_exit_2(self, command, flag, tmp_path, capsys):
        flag = flag.replace("F", str(tmp_path / "out"))
        assert _exit_code(_SMALL_RUNS[command] + flag.split()) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("module", ["dashboard", "export"])
    def test_modules_cannot_be_imported(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(f"repro.obs.{module}")


class TestDuplicatePaperCommandsAreGone:
    @pytest.mark.parametrize("argv", [
        ["datasets"],
        ["speedup", "products"],
        ["speedup", "products", "--training"],
        ["characterize"],
    ])
    def test_commands_exit_2(self, argv, capsys):
        assert _exit_code(argv) == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err

    def test_perf_report_cannot_be_imported(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.perf.report")

    def test_subcommands_are_the_seven_left(self):
        from repro.cli import build_parser

        subparsers = next(
            action for action in build_parser()._actions
            if action.dest == "command"
        )
        assert set(subparsers.choices) == {
            "train", "bench-sharded", "profile", "top", "serve", "loadgen",
            "experiment",
        }


class TestVariantKernelsAreGone:
    def test_profile_kernel_flag_exits_2(self, capsys):
        assert _exit_code(_SMALL_RUNS["profile"] + ["--kernel", "compression"]) == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err

    @pytest.mark.parametrize("module", ["fused", "compressed", "spmm", "distgnn"])
    def test_variant_modules_cannot_be_imported(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(f"repro.kernels.{module}")


class TestOneGuardEngine:
    def test_health_module_cannot_be_imported(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.obs.health")

    def test_trainer_takes_no_health_monitor(self):
        from repro.nn import Trainer

        assert "health" not in inspect.signature(Trainer).parameters


class TestDelayedAggregationIsGone:
    @pytest.mark.parametrize("command", [
        _SMALL_RUNS["train"] + ["--shards", "2"],
        ["bench-sharded", "products", "--scale", "0.02", "--shards", "2",
         "--epochs", "1"],
    ])
    @pytest.mark.parametrize("flag", [
        ["--delay-aggregation", "1"], ["--halo-refresh", "2"],
    ])
    def test_flags_exit_2(self, command, flag, capsys):
        assert _exit_code(command + flag) == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("keyword", [
        {"delayed_layers": (1,)}, {"halo_refresh": 1}, {"refine_passes": 0},
    ])
    def test_trainer_refuses_the_keywords(self, keyword):
        from repro.graphs import load_dataset
        from repro.nn import Adam, build_model
        from repro.parallel import ShardedTrainer

        graph = load_dataset("products", scale=0.02, seed=0)
        model = build_model("gcn", 8, 8, 4, seed=0)
        with pytest.raises(TypeError, match="unexpected keyword"):
            ShardedTrainer(graph, model, Adam(model), **keyword)


class TestOnePaperPlan:
    def test_experiment_training_flag_exits_2(self, capsys):
        """fig14's training panel is its own plan entry, ``fig14b``."""
        assert _exit_code(["experiment", "fig14", "--training"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--only", "tab3"], ["--timestamp", "42"]])
    def test_run_all_subset_and_clock_flags_exit_2(
        self, flag, run_all, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            run_all.main([str(tmp_path / "out.md"), *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not (tmp_path / "out.md").exists()

    def test_hardware_figures_follow_scale(self, monkeypatch, capsys):
        """The simulated figures build their twins at 0.3x ``--scale``
        (0.15 at the document's 0.5), not at a scale of their own."""
        from repro.bench import figures

        scales = []
        real = figures.load_dataset

        def recording(name, scale, seed=0):
            scales.append(scale)
            return real(name, scale=scale, seed=seed)

        monkeypatch.setattr(figures, "load_dataset", recording)
        assert main(["experiment", "fig12b", "--scale", "0.05"]) == 0
        assert scales == [pytest.approx(0.015)] * 2  # products, wikipedia


class TestUnsetKnobsAreGone:
    """Refills assemble exact neighbourhoods, the batcher's bounds are
    constants of the service, and one frame is ``top``'s default."""

    @pytest.mark.parametrize("command,flag", [
        (_SMALL_RUNS["serve"], ["--fanout", "2", "2"]),
        (_SMALL_RUNS["serve"], ["--max-batch", "8"]),
        (_SMALL_RUNS["serve"], ["--max-queue", "8"]),
        (["top", "run.jsonl"], ["--once"]),
    ], ids=["serve-fanout", "serve-max-batch", "serve-max-queue", "top-once"])
    def test_flags_exit_2(self, command, flag, capsys):
        assert _exit_code(command + flag) == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_service_takes_no_sampling_or_bounds(self):
        from repro.nn.minibatch import assemble_batch
        from repro.serve import InferenceService

        assert list(inspect.signature(InferenceService).parameters) == [
            "graph", "features", "model"]
        assert list(inspect.signature(assemble_batch).parameters) == [
            "graph", "vertices", "num_layers"]
