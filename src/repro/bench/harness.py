"""Experiment harness: result rows, paper-vs-measured comparison tables.

Every benchmark in ``benchmarks/`` reproduces one paper artifact (a
table or a figure) and reports its rows through this harness so the
output format is uniform and the paper's published values sit next to
the measured ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


@dataclass
class ResultRow:
    """One measured data point, optionally paired with the paper's value."""

    label: str
    measured: float
    paper: Optional[float] = None
    unit: str = "x"

    @property
    def ratio(self) -> Optional[float]:
        """measured / paper — 1.0 means exact reproduction."""
        if self.paper in (None, 0):
            return None
        return self.measured / self.paper

    def format(self, label_width: int = 36) -> str:
        text = f"{self.label:<{label_width}} {self.measured:8.3f} {self.unit}"
        if self.paper is not None:
            ratio = self.ratio
            text += f"   paper {self.paper:8.3f}"
            if ratio is not None:
                text += f"   ({ratio:5.2f} of paper)"
        return text

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable row: label, measured, paper, unit, ratio."""
        return {
            "label": self.label,
            "measured": self.measured,
            "paper": self.paper,
            "unit": self.unit,
            "ratio": self.ratio,
        }


@dataclass
class Experiment:
    """A named experiment (one table or figure) and its rows."""

    experiment_id: str
    title: str
    rows: List[ResultRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(
        self,
        label: str,
        measured: float,
        paper: Optional[float] = None,
        unit: str = "x",
    ) -> ResultRow:
        row = ResultRow(label=label, measured=measured, paper=paper, unit=unit)
        self.rows.append(row)
        return row

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        width = max((len(r.label) for r in self.rows), default=20) + 2
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines += [row.format(width) for row in self.rows]
        lines += [f"   note: {note}" for note in self.notes]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable experiment: id, title, rows, notes, summary."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "rows": [row.to_dict() for row in self.rows],
            "notes": list(self.notes),
            "max_paper_deviation": self.max_paper_deviation(),
        }

    # ------------------------------------------------------------------
    def shape_holds(self, expected_order: Sequence[str]) -> bool:
        """Check that measured values are ordered like the paper says.

        ``expected_order`` lists row labels from smallest to largest
        expected measurement; ties hold, an inversion of any size fails.
        """
        values = {row.label: row.measured for row in self.rows}
        missing = [label for label in expected_order if label not in values]
        if missing:
            raise KeyError(f"rows missing for shape check: {missing}")
        seq = [values[label] for label in expected_order]
        return all(b >= a for a, b in zip(seq, seq[1:]))

    def max_paper_deviation(self) -> Optional[float]:
        """Largest |measured/paper - 1| over rows that have paper values."""
        ratios = [abs(r.ratio - 1.0) for r in self.rows if r.ratio is not None]
        return max(ratios) if ratios else None
