"""The run record: one manifest that every file the program writes opens
with, and the run-report document built on it.

Five writers share :func:`manifest`: the ``--json`` run report
(:func:`build_run_report`), the ``--events`` JSONL header
(:class:`~repro.obs.events.EventLog`), the ``--trace`` JSONL header
(:meth:`~repro.obs.trace.Tracer.export_jsonl`), ``repro loadgen --out``
(:func:`repro.serve.write_results`) and ``benchmarks/run_all.py``'s
``BENCH_results.json``.  A manifest says what ran (``command``,
``argv``, the parsed ``config``), from which tree (``git_sha``,
``git_dirty``), where (``host``, ``platform``, ``nproc``) and on which
numerics (``python``, ``numpy``, ``scipy`` and the ``blas`` NumPy was
built against), so two records are comparable only when their
manifests say they should be.  One :data:`RECORD_SCHEMA_VERSION`
versions every layout.

A *run report* (``repro train --json run.json``, ``repro profile
--json``) joins to its manifest:

* ``spans`` — the tracer's flat span records plus the nested tree;
* ``metrics`` — the registry snapshot;
* ``counter_totals`` — counters summed over all spans, for quick diffs
  between runs without walking the tree.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from .metrics import MetricsRegistry
    from .trace import Tracer

#: Version of every record layout the program writes (3: the manifest
#: replaced the per-file schema numbers, which went up to 2).
RECORD_SCHEMA_VERSION = 3


def _git(*args: str) -> Optional[str]:
    """Output of a git command in the repo containing this package, if
    there is one."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas() -> Optional[Dict[str, Any]]:
    """Name and version of the BLAS NumPy was built against (None where
    NumPy cannot report its build as a dict, before 1.26)."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def manifest(
    command: Optional[str] = None,
    argv: Sequence[str] = (),
    config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The manifest a record opens with: what ran, from which tree,
    where, and on which numerics (plain dict, JSON-serializable).

    ``command`` and ``argv`` are the program's command and its
    arguments, ``config`` what they parsed to (seed, scale, dataset,
    ...).  Built once per run and handed to each of its writers, so the
    files of one run carry equal manifests.
    """
    import numpy
    import scipy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "schema": RECORD_SCHEMA_VERSION,
        "command": command,
        "argv": list(argv),
        "config": dict(config or {}),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "created_unix": time.time(),
    }


def ensure_manifest(given: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """``given``, or a manifest of this process (``sys.argv``) for a
    writer called without its run's."""
    if given is not None:
        return given
    return manifest(os.path.basename(sys.argv[0]), sys.argv[1:])


def span_tree(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Nest flat span records into a tree (adds a ``children`` list)."""
    by_id: Dict[int, Dict[str, Any]] = {}
    for rec in records:
        node = dict(rec)
        node["children"] = []
        by_id[node["span_id"]] = node
    roots: List[Dict[str, Any]] = []
    for node in by_id.values():
        parent = (
            by_id.get(node["parent_id"]) if node["parent_id"] is not None else None
        )
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    for node in by_id.values():
        node["children"].sort(key=lambda c: c["span_id"])
    roots.sort(key=lambda n: n["span_id"])
    return roots


def build_run_report(
    tracer: Optional["Tracer"] = None,
    metrics: Optional["MetricsRegistry"] = None,
    manifest: Optional[Dict[str, Any]] = None,
    events: Optional[Any] = None,
    sparsity: Optional[Any] = None,
    alerts: Optional[Any] = None,
) -> Dict[str, Any]:
    """Assemble the run-report document (plain dict, JSON-serializable),
    opening with the run's ``manifest``.

    ``events`` embeds a training run's epoch records — either an
    :class:`~repro.obs.events.EventLog` (its buffered records are taken)
    or a plain list of record dicts.  ``sparsity`` embeds a
    :class:`~repro.tensors.sparsity.SparsityProfile` (or its
    ``to_dict()``), so a single report joins model quality, the §2.2
    sparsity trajectory, and the span/metric telemetry.  ``alerts``
    embeds the SLO verdict — either a
    :class:`~repro.obs.rules.RuleEngine` (its ``to_dict()`` is taken) or
    a pre-built dict — so a report alone answers "did the run stay
    inside its envelope".
    """
    records = (
        [span.to_record() for span in sorted(tracer.spans(), key=lambda s: s.span_id)]
        if tracer is not None
        else []
    )
    report: Dict[str, Any] = {
        "manifest": ensure_manifest(manifest),
        "spans": records,
        "span_tree": span_tree(records),
        "metrics": metrics.snapshot() if metrics is not None else {},
        "counter_totals": tracer.aggregate_counters() if tracer is not None else {},
    }
    if tracer is not None:
        report["trace_epoch_unix"] = tracer.epoch_unix
    if events is not None:
        report["epoch_events"] = list(getattr(events, "events", events))
    if sparsity is not None:
        report["sparsity"] = (
            sparsity.to_dict() if hasattr(sparsity, "to_dict") else dict(sparsity)
        )
    if alerts is not None:
        report["alerts"] = (
            alerts.to_dict() if hasattr(alerts, "to_dict") else dict(alerts)
        )
    return report


def write_json(path: str, report: Dict[str, Any]) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
