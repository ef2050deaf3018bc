"""Unit tests for the experiment harness."""

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
        d = ResultRow("speedup", 1.5, paper=1.0, unit="x").to_dict()
        assert d == {
            "label": "speedup", "measured": 1.5, "paper": 1.0,
            "unit": "x", "ratio": 1.5,
        }

    def test_to_dict_without_paper(self):
        d = ResultRow("t", 2.0).to_dict()
        assert d["paper"] is None and d["ratio"] is None


class TestExperiment:
    def test_add_and_render(self):
        exp = Experiment("fig0", "demo")
        exp.add("a", 1.0, 1.1)
        exp.add("b", 2.0)
        exp.note("a note")
        text = exp.render()
        assert "fig0" in text
        assert "a note" in text

    def test_shape_holds(self):
        exp = Experiment("fig0", "demo")
        exp.add("small", 1.0)
        exp.add("big", 2.0)
        assert exp.shape_holds(["small", "big"])
        assert not exp.shape_holds(["big", "small"])

    def test_shape_tolerance(self):
        """There is no tolerance: a 2% inversion fails, a tie holds."""
        exp = Experiment("fig0", "demo")
        exp.add("a", 1.00)
        exp.add("b", 0.98)
        exp.add("c", 0.98)
        assert not exp.shape_holds(["a", "b"])
        assert exp.shape_holds(["b", "c"])

    def test_shape_missing_row(self):
        exp = Experiment("fig0", "demo")
        exp.add("a", 1.0)
        with pytest.raises(KeyError):
            exp.shape_holds(["a", "missing"])

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
        d = exp.to_dict()
        assert d["experiment_id"] == "fig0"
        assert d["title"] == "demo"
        assert [r["label"] for r in d["rows"]] == ["a", "b"]
        assert d["notes"] == ["a note"]
        assert d["max_paper_deviation"] == pytest.approx(0.1)

    def test_to_dict_json_serializable(self):
        import json

        exp = Experiment("fig0", "demo")
        exp.add("a", 1.0)
        json.dumps(exp.to_dict())
