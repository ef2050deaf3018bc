"""The benchmark runs end to end and reports what ``BENCHMARK.json`` says.

Outside ``testpaths``: run it with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_smoke_summary_matches_declaration(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    for name in ("manifest.json", "metrics.jsonl", "summary.json", "trace.jsonl"):
        assert (tmp_path / name).stat().st_size > 0, name

    summary = json.loads((tmp_path / "summary.json").read_text())["workloads"]
    assert list(summary) == [w["name"] for w in spec["workloads"]]
    for workload, row in summary.items():
        assert row["correct"] and row["failed"] == 0, workload
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            reported = {name: cell["unit"] for name, cell in row[kind].items()}
            assert reported == declared, (workload, kind)
        for name, cell in row["end_to_end"].items():
            assert cell["median"] > 0, (workload, name)
