"""Run-report builder: spans + metrics + environment in one JSON doc.

A *run report* is the machine-readable record of one invocation —
``repro train --json run.json`` or ``repro profile`` — joining:

* ``environment`` — git SHA, Python / NumPy versions, platform, CPU
  count, package version;
* ``meta`` — what was run (command, dataset, workers, backend, ...),
  supplied by the caller;
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
from typing import Any, Dict, Optional

from .metrics import MetricsRegistry
from .trace import Tracer, span_tree

#: Version of the run-report document layout.
REPORT_SCHEMA_VERSION = 1


def _git_sha() -> Optional[str]:
    """HEAD commit of the repo containing this package, if any."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment_info() -> Dict[str, Any]:
    """The reproducibility metadata attached to every run report."""
    import numpy

    from .. import __version__

    return {
        "repro_version": __version__,
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def build_run_report(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    meta: Optional[Dict[str, Any]] = None,
    events: Optional[Any] = None,
    sparsity: Optional[Any] = None,
    alerts: Optional[Any] = None,
) -> Dict[str, Any]:
    """Assemble the run-report document (plain dict, JSON-serializable).

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
        "schema": REPORT_SCHEMA_VERSION,
        "environment": environment_info(),
        "meta": dict(meta or {}),
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
