"""Unit tests for the streaming epoch-event log."""

import json
import math

import pytest
from conftest import make_event

from repro.obs import RECORD_SCHEMA_VERSION, manifest
from repro.obs.events import (
    EventLog, EventTail, read_events, validate_epoch_event,
    validate_events, validate_events_file,
)


#: A complete line that does not parse, then epoch 1's good record.
BAD_THEN_GOOD = "not json\n" + json.dumps(make_event(1).to_record()) + "\n"


def _log(tmp_path, epochs, tail=""):
    """An event log of ``epochs``' records, then ``tail`` appended raw."""
    path = str(tmp_path / "run.jsonl")
    with EventLog(path) as log:
        for epoch in epochs:
            log.emit(make_event(epoch))
    with open(path, "a") as handle:
        handle.write(tail)
    return path


class TestEventLog:
    def test_header_then_epochs(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        run = manifest("train", ["products"], {"dataset": "products"})
        with EventLog(path, run) as log:
            log.emit(make_event(0))
            log.emit(make_event(1))
        header, records = read_events(path)
        assert header == {"kind": "events_header", "manifest": run}
        assert header["manifest"]["schema"] == RECORD_SCHEMA_VERSION
        assert [r["epoch"] for r in records] == [0, 1]

    def test_each_emit_flushed(self, tmp_path):
        # The log must be readable mid-run: a killed run keeps its prefix.
        path = str(tmp_path / "run.jsonl")
        log = EventLog(path)
        log.emit(make_event(0))
        header, records = read_events(path)  # log still open
        assert len(records) == 1
        log.close()

    def test_in_memory_buffer_and_len(self, tmp_path):
        log = EventLog(str(tmp_path / "run.jsonl"))
        assert len(log) == 0
        log.emit(make_event(0))
        assert (len(log), log.events[0]["kind"]) == (1, "epoch")
        log.close()

    def test_pathless_log_buffers_only(self):
        log = EventLog(None)
        log.emit(make_event(0))
        assert len(log) == 1
        log.close()

    def test_nan_survives_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with EventLog(path) as log:
            log.emit(make_event(0, loss=float("nan")))
        _, records = read_events(path)
        assert math.isnan(records[0]["loss"])

    def test_not_an_event_log(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text(json.dumps({"kind": "trace_header"}) + "\n")
        with pytest.raises(ValueError, match="events_header"):
            read_events(str(path))

    def test_truncated_final_line_tolerated(self, tmp_path):
        # A run killed mid-write leaves a partial last line; the reader
        # must return the complete prefix instead of raising.
        path = _log(tmp_path, [0, 1], '{"kind": "epoch", "epo')  # no newline
        header, records = read_events(path)
        assert [r["epoch"] for r in records] == [0, 1]

    def test_unterminated_whole_record_left_unread(self, tmp_path):
        # Whether or not it parses, a line without its newline is still
        # being written: the log and the tail read it once it ends.
        path = _log(tmp_path, [0])
        tail = EventTail(path)
        with open(path, "a") as handle:
            handle.write(json.dumps(make_event(1).to_record()))
        assert [r["epoch"] for r in read_events(path)[1]] == [0]
        assert [r["epoch"] for r in tail.read_new()] == [0]
        with open(path, "a") as handle:
            handle.write("\n")
        assert [r["epoch"] for r in read_events(path)[1]] == [0, 1]
        assert [r["epoch"] for r in tail.read_new()] == [1]

    def test_newline_terminated_corrupt_last_line_raises(self, tmp_path):
        # Only a line without its newline is a partial flush; a complete
        # last line that does not parse is corruption, and the schema
        # check must not pass a log that lost its final record.
        path = _log(tmp_path, [0], '{"kind": "epoch", "epoch": 0, "loss": \n')
        with pytest.raises(ValueError, match="line 3"):
            read_events(path)
        with pytest.raises(ValueError, match="line 3"):
            validate_events_file(path)

    def test_malformed_middle_line_still_raises(self, tmp_path):
        path = _log(tmp_path, [0], BAD_THEN_GOOD)
        with pytest.raises(ValueError, match="line 3"):
            read_events(path)


class TestEventTail:
    def test_incremental_reads(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = EventLog(path, manifest("train", [], {"dataset": "t"}))
        log.emit(make_event(0))
        tail = EventTail(path)
        assert [e["epoch"] for e in tail.read_new()] == [0]
        assert tail.header["manifest"]["config"]["dataset"] == "t"
        assert tail.read_new() == []
        log.emit(make_event(1))
        log.emit(make_event(2))
        assert [e["epoch"] for e in tail.read_new()] == [1, 2]
        log.close()

    def test_missing_file_yields_nothing(self, tmp_path):
        tail = EventTail(str(tmp_path / "missing.jsonl"))
        assert tail.read_new() == [] and tail.header is None

    def test_partial_line_deferred_until_complete(self, tmp_path):
        path = _log(tmp_path, [0])
        tail = EventTail(path)
        assert len(tail.read_new()) == 1
        record = json.dumps(make_event(1).to_record())
        with open(path, "a") as handle:
            handle.write(record[:10])  # partial write, no newline
            handle.flush()
        assert tail.read_new() == []  # incomplete line not consumed
        with open(path, "a") as handle:
            handle.write(record[10:] + "\n")
        assert [e["epoch"] for e in tail.read_new()] == [1]

    def test_file_appearing_late(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        tail = EventTail(path)
        assert tail.read_new() == []
        with EventLog(path) as log:
            log.emit(make_event(0))
        assert [e["epoch"] for e in tail.read_new()] == [0]


    def test_malformed_complete_line_skipped(self, tmp_path):
        # The tail's policy: read_events raises on this log, the tail
        # reads past the bad line instead of wedging on it.
        path = _log(tmp_path, [0], BAD_THEN_GOOD)
        assert [e["epoch"] for e in EventTail(path).read_new()] == [0, 1]


class TestValidation:
    def test_valid_record_passes(self):
        assert validate_epoch_event(make_event().to_record()) == []

    def test_nan_values_are_valid(self):
        record = make_event(loss=float("nan"),
                            grad_norms={"0": {"weight": float("nan")}}).to_record()
        assert validate_epoch_event(record) == []

    def test_missing_field(self):
        record = make_event().to_record()
        del record["grad_norms"]
        assert any("grad_norms" in p for p in validate_epoch_event(record))

    def test_bad_epoch_and_sparsity_range(self):
        """A bad epoch is flagged.  ``sparsity`` is no epoch field since
        schema 2 (``TrainingHistory.sparsity`` holds it), so a stale one
        is ignored, not range-checked."""
        record = make_event().to_record()
        record["epoch"] = -1
        record["sparsity"] = {"0": 1.5}
        problems = validate_epoch_event(record)
        assert any("epoch" in p for p in problems)
        assert not any("sparsity" in p for p in problems)

    def test_missing_compression_key(self):
        """Schema 2 dropped the ``sparsity`` and ``compression`` fields:
        a record without them is valid."""
        record = make_event().to_record()
        assert RECORD_SCHEMA_VERSION == 3 == record["schema"]
        assert "compression" not in record and "sparsity" not in record
        assert validate_epoch_event(record) == []

    def test_validate_events_collects_all_problems(self):
        good = make_event(0).to_record()
        bad = make_event(1).to_record()
        del bad["loss"]
        with pytest.raises(ValueError, match="record 1"):
            validate_events([good, bad])

    def test_validate_events_checks_header(self):
        with pytest.raises(ValueError, match="header"):
            validate_events([], header={
                "kind": "events_header", "manifest": {"schema": 99}})

    def test_validate_events_file(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with EventLog(path, manifest("t", [], {"k": 1})) as log:
            log.emit(make_event(0))
        header, records = validate_events_file(path)
        assert header["manifest"]["config"] == {"k": 1}
        assert len(records) == 1
