"""Unit tests for the event-driven Figure-10 request timeline."""

import pytest

from repro.dma.timeline import (
    DescriptorJob,
    DmaRequestTimeline,
    figure10_example,
)


class TestDescriptorJob:
    def test_total_input_lines(self):
        job = DescriptorJob(index_lines=3, inputs_per_index_line=2, lines_per_input=2)
        assert job.total_input_lines == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            DescriptorJob(index_lines=-1, inputs_per_index_line=1, lines_per_input=1)
        with pytest.raises(ValueError):
            DescriptorJob(index_lines=1, inputs_per_index_line=0, lines_per_input=1)


@pytest.fixture(scope="module")
def result():
    """The Figure 10 example, run once."""
    timeline, jobs = figure10_example()
    return timeline.run(jobs)


class TestFigure10Behaviors:
    def test_indices_issued_before_dependent_inputs(self, result):
        first_input_issue = min(
            e.time for e in result.events if e.kind == "issue_input"
        )
        first_index_complete = min(
            e.time for e in result.events if e.kind == "complete_index"
        )
        # No input can issue before its index line returned.
        assert first_input_issue >= first_index_complete

    def test_tracking_table_never_overflows(self, result):
        assert result.max_table_occupancy <= 4

    def test_index_buffer_never_overflows(self, result):
        assert result.max_index_buffer_occupancy <= 2

    def test_all_lines_fetched(self, result):
        assert len([e for e in result.events if e.kind == "complete_index"]) == 3
        assert len([e for e in result.events if e.kind == "complete_input"]) == 12

    def test_index_priority_over_inputs(self, result):
        """Once an index can issue, it wins over pending input fetches —
        't3: the table gives priority to ... idx[4:5] over input data'."""
        # The third index line issues before the last input lines do.
        idx_issues = [e for e in result.events if e.kind == "issue_index"]
        input_issues = [e for e in result.events if e.kind == "issue_input"]
        third_index_time = idx_issues[2].time
        later_inputs = [e for e in input_issues if e.time > third_index_time]
        assert later_inputs, "index did not preempt remaining input fetches"


class TestScaling:
    def _time(self, entries, jobs=None):
        timeline = DmaRequestTimeline(
            tracking_entries=entries, index_buffer_entries=4,
            memory_latency=100.0, issue_interval=0.5,
        )
        jobs = jobs or [
            DescriptorJob(index_lines=8, inputs_per_index_line=2, lines_per_input=2)
            for _ in range(4)
        ]
        return timeline.run(jobs).finish_time

    def test_more_entries_faster(self):
        t8 = self._time(8)
        t16 = self._time(16)
        t32 = self._time(32)
        assert t16 < t8
        assert t32 <= t16

    def test_diminishing_returns(self):
        """The Figure 16 shape: 8->16 buys much more than 32->64."""
        t8, t16, t32, t64 = (self._time(e) for e in (8, 16, 32, 64))
        gain_early = t8 - t16
        gain_late = t32 - t64
        assert gain_early > gain_late

    def test_second_descriptor_overlaps(self):
        """Two small descriptors finish in far less than twice one
        descriptor's time — the engine 'simultaneously processes a second
        descriptor' when dependences would otherwise idle the table.
        (Small jobs: a single descriptor cannot fill the tracking table,
        so its index->input dependency leaves slack the second one uses.)
        """
        small = DescriptorJob(index_lines=1, inputs_per_index_line=2, lines_per_input=2)
        one = self._time(16, [small])
        two = self._time(16, [small, small])
        assert two < 2 * one * 0.75


class TestValidation:
    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            DmaRequestTimeline(tracking_entries=0)
        with pytest.raises(ValueError):
            DmaRequestTimeline(index_buffer_entries=0)
        with pytest.raises(ValueError):
            DmaRequestTimeline(memory_latency=-1)

    def test_empty_job_list(self):
        result = DmaRequestTimeline().run([])
        assert result.finish_time == 0.0

    def test_zero_index_job(self):
        result = DmaRequestTimeline().run(
            [DescriptorJob(index_lines=0, inputs_per_index_line=1, lines_per_input=1)]
        )
        assert result.finish_time == 0.0
