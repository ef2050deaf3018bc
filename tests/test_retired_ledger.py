"""The second performance ledger and the thread shard backend are deleted,
not defaulted: perfbench is the only judge of speed.

argparse accepts any unambiguous prefix of a long option, so ``--history``
exiting 2 also proves that no ``--history-...`` option is left on that
command.
"""

import importlib.util
import pathlib

import pytest

import repro.obs
from repro.cli import main

_RUN_ALL = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "run_all.py"


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
        ["bench-parallel", "products"],
        ["bench-sharded", "products"],
        ["dashboard", "events.jsonl"],
    ])
    def test_no_history_flag(self, command, tmp_path, capsys):
        assert _exit_code(command + [f"--history={tmp_path / 'h.jsonl'}"]) == 2
        assert "unrecognized arguments: --history" in capsys.readouterr().err
        assert not (tmp_path / "h.jsonl").exists()

    @pytest.mark.parametrize("flag", ["--history", "--dashboard"])
    def test_run_all_writes_no_history(self, flag, tmp_path, capsys):
        spec = importlib.util.spec_from_file_location("run_all", _RUN_ALL)
        run_all = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run_all)
        with pytest.raises(SystemExit) as excinfo:
            run_all.main([str(tmp_path / "out.md"), flag, str(tmp_path / "f")])
        assert excinfo.value.code == 2
        assert not (tmp_path / "out.md").exists()

    def test_obs_has_no_history_module(self):
        assert importlib.util.find_spec("repro.obs.history") is None
        assert not [name for name in dir(repro.obs) if "history" in name.lower()]

    def test_profiler_has_no_diff_engine(self):
        from repro.obs import profiler

        for name in ("ProfileDiff", "DiffRow", "load_profile_document"):
            assert not hasattr(profiler, name)
            assert not hasattr(repro.obs, name)


class TestThreadShardBackendIsGone:
    @pytest.mark.parametrize("command", [
        ["train", "products", "--shards", "2"],
        ["bench-sharded"],
    ])
    def test_backend_thread_exits_2(self, command, capsys):
        assert _exit_code(command + ["--backend", "thread"]) == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err
