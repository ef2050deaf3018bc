"""Streaming epoch-event log: one JSONL record per training epoch.

The run report (:mod:`repro.obs.report`) is a *post-mortem* — it exists
only after the run finished.  The event log is the *live* counterpart:
``Trainer.train_epoch`` emits one schema-versioned record per epoch, and
the writer flushes each line immediately, so a run that NaNs or is
killed at epoch 37 still leaves 37 readable records on disk.

Each epoch record carries:

* ``loss`` / ``train_accuracy`` / ``val_accuracy`` — the model-quality
  curve;
* ``wall_time_s`` — epoch wall time (forward + backward + step);
* ``grad_norms`` / ``weight_norms`` — per-layer L2 norms, the numerics
  trajectory the ``train.nonfinite`` guard rule watches;
* ``health_issues`` — one ``slo:<name>`` marker per rule that fired this
  epoch (:mod:`repro.obs.rules`; ``--health`` loads the numerics
  guards as rules).

Per-layer sparsity lives in ``TrainingHistory.sparsity`` (the run
report's ``sparsity`` section), and the Section 4.3 savings it implies
in :mod:`repro.perf.traffic`.

File format (one JSON object per line):

* line 1 — header: ``{"kind": "events_header", "schema": 2,
  "created_unix": ..., "run": {...caller meta...}}``;
* every following line — ``{"kind": "epoch", "epoch": N, ...}``.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Mapping, Optional, Tuple

#: Version of the epoch-event record layout (2: no ``sparsity`` /
#: ``compression`` fields).
EVENTS_SCHEMA_VERSION = 2

#: Fields every epoch record must carry (``validate_epoch_event``).
REQUIRED_EPOCH_FIELDS = (
    "epoch",
    "loss",
    "train_accuracy",
    "wall_time_s",
    "grad_norms",
    "weight_norms",
)


@dataclass
class EpochEvent:
    """One epoch's worth of training telemetry (JSON-serializable)."""

    epoch: int
    loss: float
    train_accuracy: float
    wall_time_s: float
    val_accuracy: Optional[float] = None
    #: layer index (as str, JSON keys are strings) -> {"weight", "bias",
    #: "h_in"}; "h_in" is absent for a layer that formed no input
    #: gradient (the first layer: nothing consumes dL/dfeatures)
    grad_norms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: layer index -> {"weight", "bias"}
    weight_norms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: ``slo:<name>`` for every rule that fired this epoch (empty when clean)
    health_issues: List[str] = field(default_factory=list)

    def to_record(self) -> Dict[str, Any]:
        return {
            "kind": "epoch",
            "schema": EVENTS_SCHEMA_VERSION,
            "epoch": self.epoch,
            "loss": self.loss,
            "train_accuracy": self.train_accuracy,
            "val_accuracy": self.val_accuracy,
            "wall_time_s": self.wall_time_s,
            "grad_norms": self.grad_norms,
            "weight_norms": self.weight_norms,
            "health_issues": list(self.health_issues),
        }


def train_plane(record: Mapping[str, Any]) -> Dict[str, float]:
    """The ``train.*`` gauges of one epoch record: what the trainer
    publishes each epoch, and what ``repro top`` replays from the log."""
    return {
        f"train.{key}": float(record[key])
        for key in ("epoch", "loss", "train_accuracy", "val_accuracy", "wall_time_s")
        if isinstance(record.get(key), numbers.Real)
    }


def plane_over_snapshot(
    snapshot: Mapping[str, Mapping[str, Any]], plane: Mapping[str, float]
) -> Dict[str, Dict[str, Any]]:
    """What a rule engine judges for one epoch: ``snapshot`` with its
    ``train.*`` gauges replaced by the epoch's ``plane``.  A gauge the
    plane lacks (a non-finite epoch's ``train.loss_over_best``) is
    skipped by its rules, not judged at the value another epoch left."""
    merged = {
        name: doc for name, doc in snapshot.items()
        if not (name.startswith("train.") and doc.get("type") == "gauge")
    }
    merged.update(
        (name, {"type": "gauge", "value": value}) for name, value in plane.items()
    )
    return merged


class EventLog:
    """Streaming JSONL epoch-event writer (and in-memory record buffer).

    The header is written on open; every :meth:`emit` writes and
    *flushes* one line, so the log is valid after any prefix of the run.
    Records are also kept in ``self.events`` so the run report can embed
    them without re-reading the file.  Usable as a context manager.
    """

    def __init__(self, path: Optional[str], meta: Optional[Dict[str, Any]] = None):
        self.path = path
        self.meta = dict(meta or {})
        self.events: List[Dict[str, Any]] = []
        self._handle: Optional[IO[str]] = None
        if path is not None:
            self._handle = open(path, "w")
            self._handle.write(json.dumps(self.header()) + "\n")
            self._handle.flush()

    def header(self) -> Dict[str, Any]:
        return {
            "kind": "events_header",
            "schema": EVENTS_SCHEMA_VERSION,
            "created_unix": time.time(),
            "run": self.meta,
        }

    def emit(self, event: EpochEvent) -> Dict[str, Any]:
        """Append one epoch record (returns the serialized dict)."""
        record = event.to_record()
        self.events.append(record)
        if self._handle is not None:
            self._handle.write(json.dumps(record, allow_nan=True) + "\n")
            self._handle.flush()
        return record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.events)


def _read_jsonl(
    path: str, offset: int = 0, strict: bool = True
) -> Tuple[List[Dict[str, Any]], int]:
    """The records on the complete lines of the JSONL file at ``path``
    from byte ``offset`` on, and the offset past the last of them.

    An unterminated final line, the partial flush of a writer still in
    flight or killed mid-``write``, is left unread for the next call.
    A complete line that does not parse raises ``ValueError`` naming it
    when ``strict``, else is skipped.  Python's JSON reader accepts the
    bare ``NaN``/``Infinity`` tokens a diverged run writes.
    """
    # Binary mode: byte offsets stay exact under any encoding.
    with open(path, "rb") as handle:
        handle.seek(offset)
        chunk = handle.read()
    end = chunk.rfind(b"\n") + 1
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(chunk[:end].split(b"\n"), 1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            if strict:
                raise ValueError(
                    f"{path}: malformed JSON on line {number}: {error}"
                ) from error
    return records, offset + end


def _read_headed(
    path: str, header_kind: str, kind: str
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """``(header, records of kind)`` of a whole JSONL file whose first
    record is a ``header_kind`` one (``ValueError`` otherwise)."""
    records, _ = _read_jsonl(path)
    if not records or records[0].get("kind") != header_kind:
        raise ValueError(f"{path}: missing {header_kind} record")
    return records[0], [r for r in records[1:] if r.get("kind") == kind]


def read_events(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Load an event log; returns (header, epoch records).

    A run still in flight yields its complete prefix; any malformed
    complete line is an error naming it (corruption, not a live tail).
    """
    return _read_headed(path, "events_header", "epoch")


class EventTail:
    """Incremental reader of a growing epoch-event log.

    Built for the live monitor: each :meth:`read_new` picks up where
    the previous one stopped (byte offset), returns only the *complete*
    new records, and leaves a partially flushed final line on disk for
    the next poll.  A malformed complete line is skipped, so it cannot
    wedge the tail.  The header (once seen) is kept on ``self.header``.
    """

    def __init__(self, path: str):
        self.path = path
        self.header: Optional[Dict[str, Any]] = None
        self._offset = 0

    def read_new(self) -> List[Dict[str, Any]]:
        """Complete epoch records appended since the last call."""
        try:
            records, self._offset = _read_jsonl(
                self.path, self._offset, strict=False
            )
        except FileNotFoundError:
            return []
        for record in records:
            if self.header is None and record.get("kind") == "events_header":
                self.header = record
        return [record for record in records if record.get("kind") == "epoch"]


def _check_norm_map(record: Dict[str, Any], key: str, problems: List[str]) -> None:
    value = record.get(key)
    if not isinstance(value, dict):
        problems.append(f"{key}: expected an object, got {type(value).__name__}")
        return
    for layer, entry in value.items():
        if not isinstance(entry, dict) or not all(
            isinstance(v, (int, float)) for v in entry.values()
        ):
            problems.append(f"{key}[{layer}]: expected an object of numbers")


def validate_epoch_event(record: Dict[str, Any]) -> List[str]:
    """Schema problems of one epoch record (empty list when valid).

    NaN/Inf values are *valid* — a diverged run must still produce a
    schema-conforming log (that is the point of the guard rules).
    """
    problems: List[str] = []
    if record.get("kind") != "epoch":
        problems.append(f"kind: expected 'epoch', got {record.get('kind')!r}")
    if record.get("schema") != EVENTS_SCHEMA_VERSION:
        problems.append(
            f"schema: expected {EVENTS_SCHEMA_VERSION}, got {record.get('schema')!r}"
        )
    for key in REQUIRED_EPOCH_FIELDS:
        if key not in record:
            problems.append(f"missing field {key!r}")
    if problems:
        return problems
    if not isinstance(record["epoch"], int) or record["epoch"] < 0:
        problems.append(f"epoch: expected a non-negative int, got {record['epoch']!r}")
    for key in ("loss", "train_accuracy", "wall_time_s"):
        if not isinstance(record[key], (int, float)):
            problems.append(f"{key}: expected a number, got {record[key]!r}")
    val = record.get("val_accuracy")
    if val is not None and not isinstance(val, (int, float)):
        problems.append(f"val_accuracy: expected a number or null, got {val!r}")
    _check_norm_map(record, "grad_norms", problems)
    _check_norm_map(record, "weight_norms", problems)
    return problems


def validate_events(
    records: List[Dict[str, Any]], header: Optional[Dict[str, Any]] = None
) -> None:
    """Raise ``ValueError`` listing every schema problem in the log."""
    problems: List[str] = []
    if header is not None:
        if header.get("kind") != "events_header":
            problems.append("header: kind != 'events_header'")
        if header.get("schema") != EVENTS_SCHEMA_VERSION:
            problems.append(
                f"header: schema {header.get('schema')!r} != {EVENTS_SCHEMA_VERSION}"
            )
    for idx, record in enumerate(records):
        for problem in validate_epoch_event(record):
            problems.append(f"record {idx}: {problem}")
    if problems:
        raise ValueError("invalid event log:\n  " + "\n  ".join(problems))


def validate_events_file(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read and validate an event log; returns (header, records)."""
    header, records = read_events(path)
    validate_events(records, header)
    return header, records
