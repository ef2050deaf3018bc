"""The paper plane's one run: ``benchmarks/run_all.py`` over every entry
of ``figures.PLAN`` (the session's ``paper_run``), its two documents and
its shape criteria."""

import json

import pytest

from repro.bench import Experiment
from repro.bench.figures import PLAN, SOFTWARE_SCALE, PlanEntry
from repro.cli import build_parser
from repro.obs import manifest

#: A scale below the document's, at which every criterion but the
#: paper-deviation bounds applies.
SCALE = 0.25


class TestBuildResultsDoc:
    """``BENCH_results.json``: ``{manifest, experiments, summary}``."""

    def _write(self, run_all, tmp_path, monkeypatch):
        a = Experiment("fig0", "demo a")
        a.add("x", 1.1, paper=1.0)
        b = Experiment("fig1", "demo b")
        b.add("y", 2.0)
        monkeypatch.setattr(run_all, "PLAN", {
            "fig0": PlanEntry("run a", lambda ctx: a),
            "fig1": PlanEntry("run b", lambda ctx: b),
        })
        monkeypatch.setattr(run_all.criteria, "CRITERIA", [])
        argv = [str(tmp_path / "out.md"), "--json", str(tmp_path / "r.json"),
                "--scale", "0.5"]
        assert run_all.main(argv) == 0
        return argv, (tmp_path / "r.json").read_text()

    def test_document_layout(self, run_all, tmp_path, monkeypatch):
        argv, text = self._write(run_all, tmp_path, monkeypatch)
        doc = json.loads(text)
        assert list(doc) == ["manifest", "experiments", "summary"]
        assert doc["manifest"]["command"] == "run_all"
        assert doc["manifest"]["argv"] == argv
        assert doc["manifest"]["config"]["scale"] == 0.5
        assert set(doc["manifest"]) == set(manifest())
        assert [e["key"] for e in doc["experiments"]] == ["fig0", "fig1"]
        assert doc["experiments"][0]["run_title"] == "run a"
        assert doc["experiments"][0]["rows"] == [
            {"label": "x", "measured": 1.1, "paper": 1.0, "unit": "x"}]
        summary = doc["summary"]
        assert summary["experiments"] == 2
        assert summary["rows"] == 2
        assert summary["rows_with_paper"] == 1
        assert summary["max_paper_deviation"] == pytest.approx(0.1)

    def test_json_serializable(self, run_all, tmp_path, monkeypatch):
        _, text = self._write(run_all, tmp_path, monkeypatch)
        doc = json.loads(text)
        assert json.loads(json.dumps(doc)) == doc

    def test_plan_keys_unique(self):
        """One list of keys: each plan key is a ``repro experiment``
        name, and no two differ only in case."""
        parser = build_parser()
        for key in PLAN:
            assert parser.parse_args(["experiment", key]).name == key
        assert len({key.lower() for key in PLAN}) == len(PLAN)


class TestCriteria:
    def test_every_plan_key_has_a_criterion(self, run_all):
        criteria = run_all.criteria
        keys = [c.key for c in criteria.CRITERIA]
        assert set(keys) == set(PLAN)
        named = [(c.key, c.name) for c in criteria.CRITERIA]
        assert len(named) == len(set(named))

    def test_only_the_deviation_bounds_are_document_only(self, run_all):
        criteria = run_all.criteria
        document_only = [c for c in criteria.CRITERIA if c.document_only]
        assert document_only
        assert all("paper deviation" in c.name for c in document_only)
        assert len(criteria.applicable(SOFTWARE_SCALE)) == len(criteria.CRITERIA)
        assert len(criteria.applicable(SCALE)) == (
            len(criteria.CRITERIA) - len(document_only))

    def test_a_missing_row_fails_its_criterion(self, run_all):
        criteria = run_all.criteria
        empty = {key: Experiment(key, "no rows") for key in PLAN}
        failed = criteria.failed(empty, SCALE)
        assert "fig3: retiring below 0.2" in failed
        assert "fig13: paper deviation below 0.35" not in failed

    def test_a_failing_criterion_exits_1_and_is_named(
        self, run_all, tmp_path, monkeypatch, capsys
    ):
        criteria = run_all.criteria
        monkeypatch.setattr(run_all, "PLAN", {"tab3": PLAN["tab3"]})
        monkeypatch.setattr(criteria, "CRITERIA", [
            criteria.Criterion("tab3", "planted", lambda v, e: False),
            criteria.Criterion("tab3", "holds", lambda v, e: True),
        ])
        code = run_all.main([str(tmp_path / "out.md"), "--json", "",
                             "--scale", "0.05"])
        captured = capsys.readouterr()
        assert code == 1
        assert "criteria: 1 of 2 hold at scale 0.05" in captured.out
        assert captured.err == "FAILED tab3: planted\n"
        assert (tmp_path / "out.md").exists()


class TestMain:
    def test_empty_json_flag_skips(self, run_all, tmp_path, monkeypatch, capsys):
        criteria = run_all.criteria
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(run_all, "PLAN", {"tab3": PLAN["tab3"]})
        monkeypatch.setattr(criteria, "CRITERIA", [
            c for c in criteria.CRITERIA if c.key == "tab3"])
        assert run_all.main(["out.md", "--json", "", "--scale", str(SCALE)]) == 0
        assert (tmp_path / "out.md").exists()
        assert not (tmp_path / "BENCH_results.json").exists()

    def test_every_criterion_holds(self, run_all, paper_run):
        assert (paper_run.code, paper_run.err) == (0, "")
        checked = len(run_all.criteria.applicable(paper_run.scale))
        assert (f"criteria: {checked} of {checked} hold at scale "
                f"{paper_run.scale}") in paper_run.out

    def test_writes_one_section_per_plan_entry(self, paper_run):
        out = paper_run.directory
        document = (out / "EXPERIMENTS.md").read_text()
        titles = [line.split(" — ", 1)[1] for line in document.splitlines()
                  if line.startswith("## ") and " — " in line]
        assert titles == [entry.title for entry in PLAN.values()]
        doc = json.loads((out / "results.json").read_text())
        assert [e["key"] for e in doc["experiments"]] == list(PLAN)
        assert doc["manifest"]["config"]["scale"] == paper_run.scale
        assert doc["summary"]["experiments"] == len(PLAN)
