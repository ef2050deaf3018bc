"""What is deleted stays deleted, not defaulted: the second performance
ledger, the thread shard backend, the sampling profiler, the chunk
executor, the consumer-less telemetry outputs (dashboard, Perfetto
export, ``--attrib``, ``--sample-proc``), the commands that re-printed
``repro experiment`` rows (``datasets``, ``speedup``, ``characterize``),
the variant kernel classes with ``profile --kernel``, delayed
aggregation, the paper plane's second experiment table
(``experiment --training``, ``run_all.py --only / --timestamp``) and the
knobs no workload set (``serve --fanout / --max-batch / --max-queue``,
``top --once``).  perfbench is the only judge of speed, the span plane
the only phase breakdown, lanes the only in-process parallelism, each
paper artifact has one command, and sharded training and every served
row are exact.

argparse accepts any unambiguous prefix of a long option, so ``--history``
exiting 2 also proves that no ``--history-...`` option is left on that
command.
"""

import importlib
import importlib.util
import inspect

import pytest

import repro.obs
from repro.bench import figures
from repro.cli import build_parser, main
from repro.graphs import load_dataset
from repro.nn import Adam, Trainer, build_model
from repro.nn.minibatch import assemble_batch
from repro.parallel import ShardedTrainer
from repro.serve import InferenceService


#: One small run per command, so a flag the parser fails to refuse
#: costs seconds, not a default-sized run or a server that never exits.
_SMALL_RUNS = {
    "train": ["train", "products", "--scale", "0.02", "--epochs", "1"],
    "profile": ["profile", "--vertices", "50", "--epochs", "1"],
    "serve": ["serve", "products", "--scale", "0.02", "--epochs", "0",
              "--port", "0", "--duration", "0.1"],
}


def _refused(run, argv, capsys, message="error:"):
    """``run(argv)`` is a usage error (exit 2) with ``message`` on stderr."""
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def _unrecognized(argv, capsys, flag):
    _refused(main, argv, capsys, f"unrecognized arguments: {flag}")


def _invalid_choice(argv, capsys):
    _refused(main, argv, capsys, f"invalid choice: '{argv[0]}'")


def _gone(module):
    with pytest.raises(ImportError):
        importlib.import_module(module)


class TestSecondLedgerIsGone:
    @pytest.mark.parametrize("argv", [
        ["compare"],
        ["compare", "--history", "BENCH_history.jsonl"],
        ["bench-serve", "products"],
        ["profile", "diff", "a.json", "b.json"],
    ])
    def test_retired_commands_exit_2(self, argv, capsys):
        _refused(main, argv, capsys)

    @pytest.mark.parametrize("command", [["bench-sharded", "products"]])
    def test_no_history_flag(self, command, tmp_path, capsys):
        _unrecognized(command + [f"--history={tmp_path / 'h.jsonl'}"], capsys,
                      "--history")
        assert not (tmp_path / "h.jsonl").exists()

    @pytest.mark.parametrize("flag", ["--history", "--dashboard"])
    def test_run_all_writes_no_history(self, flag, run_all, tmp_path, capsys):
        _refused(run_all.main, [str(tmp_path / "out.md"), flag,
                                str(tmp_path / "f")], capsys)
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
        ["train", "products", "--shards", "2"], ["bench-sharded"]])
    def test_backend_thread_exits_2(self, command, capsys):
        _refused(main, command + ["--backend", "thread"], capsys,
                 "invalid choice: 'thread'")


class TestSamplingProfilerIsGone:
    @pytest.mark.parametrize("command", [
        _SMALL_RUNS["train"], _SMALL_RUNS["profile"]])
    @pytest.mark.parametrize("flag", [["--sampling", "97"], ["--flame", "F"]])
    def test_sampling_flags_exit_2(self, command, flag, tmp_path, capsys):
        flag = [str(tmp_path / "flame.folded") if a == "F" else a for a in flag]
        _unrecognized(command + flag, capsys, flag[0])
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
        _invalid_choice(["bench-parallel", "products"], capsys)

    @pytest.mark.parametrize("command", [
        _SMALL_RUNS["train"], _SMALL_RUNS["profile"]])
    def test_workers_flag_exits_2(self, command, capsys):
        _unrecognized(command + ["--workers", "2"], capsys, "--workers 2")

    @pytest.mark.parametrize("module", ["executor", "plan", "workload"])
    def test_chunk_modules_cannot_be_imported(self, module):
        _gone(f"repro.parallel.{module}")


class TestConsumerlessTelemetryIsGone:
    def test_dashboard_exits_2(self, capsys):
        _invalid_choice(["dashboard", "events.jsonl"], capsys)

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
        _unrecognized(_SMALL_RUNS[command] + flag.split(), capsys, flag)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("module", ["dashboard", "export"])
    def test_modules_cannot_be_imported(self, module):
        _gone(f"repro.obs.{module}")


class TestDuplicatePaperCommandsAreGone:
    @pytest.mark.parametrize("argv", [
        ["datasets"],
        ["speedup", "products"],
        ["speedup", "products", "--training"],
        ["characterize"],
    ])
    def test_commands_exit_2(self, argv, capsys):
        _invalid_choice(argv, capsys)

    def test_perf_report_cannot_be_imported(self):
        _gone("repro.perf.report")

    def test_subcommands_are_the_seven_left(self):
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
        _unrecognized(_SMALL_RUNS["profile"] + ["--kernel", "compression"],
                      capsys, "--kernel")

    @pytest.mark.parametrize("module", ["fused", "compressed", "spmm", "distgnn"])
    def test_variant_modules_cannot_be_imported(self, module):
        _gone(f"repro.kernels.{module}")


class TestOneGuardEngine:
    def test_health_module_cannot_be_imported(self):
        _gone("repro.obs.health")

    def test_trainer_takes_no_health_monitor(self):
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
        _unrecognized(command + flag, capsys, flag[0])

    @pytest.mark.parametrize("keyword", [
        {"delayed_layers": (1,)}, {"halo_refresh": 1}, {"refine_passes": 0},
    ])
    def test_trainer_refuses_the_keywords(self, keyword):
        graph = load_dataset("products", scale=0.02, seed=0)
        model = build_model("gcn", 8, 8, 4, seed=0)
        with pytest.raises(TypeError, match="unexpected keyword"):
            ShardedTrainer(graph, model, Adam(model), **keyword)


class TestOnePaperPlan:
    def test_experiment_training_flag_exits_2(self, capsys):
        """fig14's training panel is its own plan entry, ``fig14b``."""
        _refused(main, ["experiment", "fig14", "--training"], capsys)

    @pytest.mark.parametrize("flag", [["--only", "tab3"], ["--timestamp", "42"]])
    def test_run_all_subset_and_clock_flags_exit_2(
        self, flag, run_all, tmp_path, capsys
    ):
        _refused(run_all.main, [str(tmp_path / "out.md"), *flag], capsys,
                 f"unrecognized arguments: {flag[0]}")
        assert not (tmp_path / "out.md").exists()

    def test_hardware_figures_follow_scale(self, monkeypatch, capsys):
        """The simulated figures build their twins at 0.3x ``--scale``
        (0.15 at the document's 0.5), not at a scale of their own."""
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
        _unrecognized(command + flag, capsys, flag[0])

    def test_service_takes_no_sampling_or_bounds(self):
        assert list(inspect.signature(InferenceService).parameters) == [
            "graph", "features", "model"]
        assert list(inspect.signature(assemble_batch).parameters) == [
            "graph", "vertices", "num_layers"]
