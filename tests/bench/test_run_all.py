"""Tests for the consolidated benchmark artifact (BENCH_results.json)."""

import importlib.util
import json
import pathlib

import pytest

from repro.bench import Experiment

_RUN_ALL = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "run_all.py"


@pytest.fixture(scope="module")
def run_all():
    spec = importlib.util.spec_from_file_location("run_all", _RUN_ALL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBuildResultsDoc:
    def _results(self):
        a = Experiment("fig0", "demo a")
        a.add("x", 1.1, paper=1.0)
        b = Experiment("fig1", "demo b")
        b.add("y", 2.0)
        return [("fig0", "run a", a), ("fig1", "run b", b)]

    def test_document_layout(self, run_all):
        doc = run_all.build_results_doc(
            self._results(), timestamp=1234.5, elapsed_s=0.5, scale=0.5
        )
        assert doc["schema"] == run_all.RESULTS_SCHEMA_VERSION
        assert doc["generated_unix"] == 1234.5
        assert doc["scale"] == 0.5
        assert "repro_version" in doc["environment"]
        assert [e["key"] for e in doc["experiments"]] == ["fig0", "fig1"]
        assert doc["experiments"][0]["run_title"] == "run a"
        summary = doc["summary"]
        assert summary["experiments"] == 2
        assert summary["rows"] == 2
        assert summary["rows_with_paper"] == 1
        assert summary["max_paper_deviation"] == pytest.approx(0.1)

    def test_json_serializable(self, run_all):
        json.dumps(
            run_all.build_results_doc(self._results(), 0.0, 0.0, 1.0)
        )

    def test_plan_keys_unique(self, run_all):
        from repro.bench.figures import BenchContext

        keys = [key for key, _, _ in run_all.experiment_plan(BenchContext())]
        assert len(keys) == len(set(keys))


class TestMain:
    def test_only_subset_writes_both_artifacts(
        self, run_all, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = run_all.main([
            "out.md", "--json", "results.json",
            "--scale", "0.1", "--only", "tab3",
            "--timestamp", "42.0",
        ])
        assert code == 0
        assert (tmp_path / "out.md").exists()
        doc = json.loads((tmp_path / "results.json").read_text())
        assert doc["generated_unix"] == 42.0
        assert [e["key"] for e in doc["experiments"]] == ["tab3"]

    def test_unknown_key_rejected(self, run_all, capsys):
        with pytest.raises(SystemExit):
            run_all.main(["out.md", "--only", "nope"])

    def test_empty_json_flag_skips(self, run_all, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_all.main(["out.md", "--json", "", "--scale", "0.1",
                             "--only", "tab3"]) == 0
        assert not (tmp_path / "BENCH_results.json").exists()

