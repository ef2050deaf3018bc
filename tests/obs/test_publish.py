"""Publisher: the DMA request timeline -> tracer and registry."""

import pytest

from repro import obs
from repro.dma.timeline import figure10_example


@pytest.fixture
def telemetry():
    """Enabled tracer+registry, restored to the nulls afterwards."""
    tracer, metrics = obs.enable()
    yield tracer, metrics
    obs.disable()


class TestDmaTimelinePublish:
    def test_run_emits_span_and_metrics(self, telemetry):
        tracer, metrics = telemetry
        timeline, jobs = figure10_example()
        result = timeline.run(jobs)
        spans = tracer.spans("dma.timeline")
        assert len(spans) == 1
        assert spans[0].counters["finish_cycles"] == result.finish_time
        assert spans[0].counters["events"] == len(result.events)
        snap = metrics.snapshot()
        assert snap["dma.timeline.runs"]["value"] == 1.0
        assert snap["dma.timeline.descriptors"]["value"] == 1.0
        assert (
            snap["dma.timeline.max_table_occupancy"]["value"]
            == result.max_table_occupancy
        )

    def test_result_unchanged_when_disabled(self):
        timeline, jobs = figure10_example()
        result = timeline.run(jobs)
        assert result.finish_time > 0
        assert obs.get_tracer().enabled is False
