"""Unit tests for the experiment harness."""

import json
from dataclasses import asdict

import pytest

from repro.bench import Experiment, ResultRow


class TestResultRow:
    def test_ratio(self):
        row = ResultRow("x", measured=1.5, paper=1.0)
        assert row.ratio == 1.5

    def test_ratio_without_paper(self):
        assert ResultRow("x", 1.5).ratio is None

    def test_format_includes_paper(self):
        text = ResultRow("speedup", 1.5, paper=1.6).format()
        assert "1.500" in text
        assert "1.600" in text

    def test_to_dict(self):
        """A row's machine-readable form is its fields (the ratio is
        derived, so it is not stored)."""
        d = asdict(ResultRow("speedup", 1.5, paper=1.0, unit="x"))
        assert d == {
            "label": "speedup", "measured": 1.5, "paper": 1.0, "unit": "x",
        }

    def test_to_dict_without_paper(self):
        row = ResultRow("t", 2.0)
        assert asdict(row)["paper"] is None and row.ratio is None


class TestExperiment:
    def test_add_and_render(self):
        exp = Experiment("fig0", "demo")
        exp.add("a", 1.0, 1.1)
        exp.add("b", 2.0)
        exp.note("a note")
        text = exp.render()
        assert "fig0" in text
        assert "a note" in text

    def test_max_paper_deviation(self):
        exp = Experiment("fig0", "demo")
        exp.add("a", 1.1, paper=1.0)
        exp.add("b", 0.8, paper=1.0)
        assert exp.max_paper_deviation() == pytest.approx(0.2)

    def test_max_paper_deviation_empty(self):
        exp = Experiment("fig0", "demo")
        exp.add("a", 1.0)
        assert exp.max_paper_deviation() is None

    def test_to_dict(self):
        exp = Experiment("fig0", "demo")
        exp.add("a", 1.1, paper=1.0)
        exp.add("b", 2.0)
        exp.note("a note")
        d = asdict(exp)
        assert d["experiment_id"] == "fig0"
        assert d["title"] == "demo"
        assert [r["label"] for r in d["rows"]] == ["a", "b"]
        assert d["notes"] == ["a note"]

    def test_to_dict_json_serializable(self):
        exp = Experiment("fig0", "demo")
        exp.add("a", 1.0)
        assert json.loads(json.dumps(asdict(exp))) == asdict(exp)
