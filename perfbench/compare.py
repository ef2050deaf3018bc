#!/usr/bin/env python3
"""Judge run B against run A, metric by metric.

``python3 perfbench/compare.py A B`` takes two result directories of
``run.py`` (or their ``summary.json``) and prints one row per workload
and end-to-end metric: both medians, B's as a ratio of A's, how much
worse B is as a share of A, the bound from ``BENCHMARK.json`` and a
verdict:

* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- the quartile spread of either side is wider than the
  bound and the two sides' runs overlap, so the runs cannot tell;
* ``ok`` -- otherwise.

Exits 1 when any row regressed.  Use ``run.py --repeats 10`` on both
sides: one run a side has no spread to judge by.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> Dict[str, Any]:
    if os.path.isdir(path):
        path = os.path.join(path, "summary.json")
    with open(path) as handle:
        return json.load(handle)["workloads"]


def verdict(metric: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    base, new = a["median"], b["median"]
    worse = (new - base) / base if metric["better"] == "lower" else (base - new) / base
    overlap = min(a["values"]) <= max(b["values"]) and min(b["values"]) <= max(a["values"])
    if max(a["spread"], b["spread"]) > metric["bound"] and overlap:
        word = "unresolved"
    elif worse > metric["bound"]:
        word = "regressed"
    else:
        word = "ok"
    return [
        f"{base:.6g}", f"{new:.6g}", metric["unit"], f"{new / base:.3f}x of {base:.6g}",
        f"{worse:+.3f}", f"{metric['bound']:.2f}",
        f"{a['spread']:.3f}/{b['spread']:.3f}", word,
    ]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    a, b = load(argv[0]), load(argv[1])
    header = ["workload", "metric", "A", "B", "unit", "ratio", "worse by", "bound",
              "spread A/B", "verdict"]
    rows = [header]
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a or name not in b:
            continue
        for metric in spec["end_to_end"]:
            cells = [side[name]["end_to_end"][metric["name"]] for side in (a, b)]
            if all(cell["values"] for cell in cells):
                rows.append([name, metric["name"]] + verdict(metric, *cells))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 1 if any(row[-1] == "regressed" for row in rows[1:]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
