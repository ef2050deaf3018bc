"""Event-driven timeline of the DMA engine's request scheduling — Fig. 10.

The batch law in :mod:`repro.dma.engine` prices whole descriptor batches;
this module simulates the *mechanism* behind it at request granularity:

* the index buffer holds index lines, with entries in ``Reserved`` state
  while their fetch is in flight and ``Occupied`` once data arrives but
  input fetches derived from it are still pending;
* the Memory Request Tracking Table bounds in-flight line fetches;
* input-line addresses depend on their index line (fetch ordering);
* when a tracking-table entry frees, pending *index* fetches win over
  pending input fetches ("the table gives priority to allocate an entry
  for and fetch idx[4:5] over input data" — Section 5.2);
* when dependences idle the table, the engine pulls work from the next
  descriptor in its queue ("the DMA engine simultaneously processes a
  second descriptor").

The simulation reproduces the paper's Figure 10 example exactly (see
``tests/dma/test_timeline.py``) and, in aggregate, the Figure 16 scaling.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class DescriptorJob:
    """The fetch work of one descriptor, in line units.

    ``index_lines`` index-array lines; each index line, once fetched,
    unlocks ``inputs_per_index_line`` input blocks of ``lines_per_input``
    lines each (the Figure 10 example: 2 indices per line, 2 lines per
    input block).
    """

    index_lines: int
    inputs_per_index_line: int
    lines_per_input: int

    def __post_init__(self) -> None:
        if self.index_lines < 0:
            raise ValueError("index_lines must be >= 0")
        if self.inputs_per_index_line <= 0 or self.lines_per_input <= 0:
            raise ValueError("per-line factors must be positive")

    @property
    def total_input_lines(self) -> int:
        return self.index_lines * self.inputs_per_index_line * self.lines_per_input


@dataclass
class TimelineEvent:
    """One recorded scheduling event (for inspection and tests)."""

    time: float
    kind: str  # "issue_index" | "issue_input" | "complete_index" | "complete_input"
    descriptor: int
    tag: str


@dataclass
class TimelineResult:
    """Outcome of one timeline run."""

    finish_time: float
    events: List[TimelineEvent]
    max_table_occupancy: int
    max_index_buffer_occupancy: int


class DmaRequestTimeline:
    """Cycle-granular simulation of the Figure 10 request schedule.

    Args:
        tracking_entries: Memory Request Tracking Table size.
        index_buffer_entries: index-buffer capacity (reserved+occupied).
        memory_latency: cycles from issue to data return.
        issue_interval: minimum cycles between issues (interface width).
    """

    def __init__(
        self,
        tracking_entries: int = 32,
        index_buffer_entries: int = 2,
        memory_latency: float = 100.0,
        issue_interval: float = 1.0,
    ) -> None:
        if tracking_entries <= 0 or index_buffer_entries <= 0:
            raise ValueError("buffer sizes must be positive")
        if memory_latency < 0 or issue_interval < 0:
            raise ValueError("latencies must be non-negative")
        self.tracking_entries = tracking_entries
        self.index_buffer_entries = index_buffer_entries
        self.memory_latency = memory_latency
        self.issue_interval = issue_interval

    def run(self, jobs: List[DescriptorJob]) -> TimelineResult:
        """Simulate the fetch schedule of a queue of descriptors."""
        events: List[TimelineEvent] = []
        # Work state per descriptor.
        next_index = [0] * len(jobs)  # next index line to fetch
        # (descriptor, index_line) -> input lines still to issue.
        pending_inputs: List[Tuple[int, int, int]] = []  # desc, idx_line, line_no
        unlocked_inputs: List[Tuple[int, int, int]] = []
        inputs_remaining = [job.total_input_lines for job in jobs]
        indices_remaining = [job.index_lines for job in jobs]

        # Index buffer entries: (desc, idx_line) in Reserved or Occupied.
        reserved: List[Tuple[int, int]] = []
        occupied: Dict[Tuple[int, int], int] = {}  # -> inputs left to issue

        in_flight = 0  # tracking table occupancy
        completions: List[Tuple[float, str, int, int]] = []  # heap
        now = 0.0
        max_table = 0
        max_idx_buf = 0

        def buffer_occupancy() -> int:
            return len(reserved) + len(occupied)

        def can_issue_index(desc: int) -> bool:
            return (
                next_index[desc] < jobs[desc].index_lines
                and buffer_occupancy() < self.index_buffer_entries
                and in_flight < self.tracking_entries
            )

        while any(r > 0 for r in inputs_remaining) or any(
            next_index[d] < jobs[d].index_lines for d in range(len(jobs))
        ) or in_flight > 0:
            progressed = True
            while progressed:
                progressed = False
                # Priority 1: index fetches (Figure 10's rule), in
                # descriptor-queue order.
                for desc in range(len(jobs)):
                    if next_index[desc] < jobs[desc].index_lines and can_issue_index(desc):
                        line = next_index[desc]
                        next_index[desc] += 1
                        reserved.append((desc, line))
                        in_flight += 1
                        heapq.heappush(
                            completions,
                            (now + self.memory_latency, "index", desc, line),
                        )
                        events.append(
                            TimelineEvent(now, "issue_index", desc, f"idx[{line}]")
                        )
                        now += self.issue_interval
                        progressed = True
                        break
                else:
                    # Priority 2: unlocked input fetches.
                    if unlocked_inputs and in_flight < self.tracking_entries:
                        desc, idx_line, line_no = unlocked_inputs.pop(0)
                        in_flight += 1
                        heapq.heappush(
                            completions,
                            (now + self.memory_latency, "input", desc, idx_line),
                        )
                        events.append(
                            TimelineEvent(
                                now, "issue_input", desc,
                                f"input idx{idx_line}.{line_no}",
                            )
                        )
                        now += self.issue_interval
                        progressed = True
                max_table = max(max_table, in_flight)
                max_idx_buf = max(max_idx_buf, buffer_occupancy())

            if not completions:
                break
            # Advance to the next completion.
            time, kind, desc, idx_line = heapq.heappop(completions)
            now = max(now, time)
            in_flight -= 1
            if kind == "index":
                reserved.remove((desc, idx_line))
                job = jobs[desc]
                count = job.inputs_per_index_line * job.lines_per_input
                occupied[(desc, idx_line)] = count
                for i in range(job.inputs_per_index_line):
                    for l in range(job.lines_per_input):
                        unlocked_inputs.append((desc, idx_line, i * job.lines_per_input + l))
                indices_remaining[desc] -= 1
                events.append(
                    TimelineEvent(now, "complete_index", desc, f"idx[{idx_line}]")
                )
            else:
                inputs_remaining[desc] -= 1
                key = (desc, idx_line)
                if key in occupied:
                    occupied[key] -= 1
                    if occupied[key] <= 0:
                        del occupied[key]
                events.append(
                    TimelineEvent(now, "complete_input", desc, f"input idx{idx_line}")
                )
            # Issued inputs also shrink the occupied counter's issue debt:
            # entries free once all their inputs have been *issued*; we
            # approximate by freeing on completion (conservative).

        return TimelineResult(
            finish_time=now,
            events=events,
            max_table_occupancy=max_table,
            max_index_buffer_occupancy=max_idx_buf,
        )


def figure10_example() -> Tuple[DmaRequestTimeline, List[DescriptorJob]]:
    """The exact configuration of the paper's Figure 10.

    A 2-entry index buffer and a 4-entry tracking table; each requested
    line contains two indices, and each input block spans two lines.
    """
    timeline = DmaRequestTimeline(
        tracking_entries=4, index_buffer_entries=2,
        memory_latency=10.0, issue_interval=1.0,
    )
    jobs = [DescriptorJob(index_lines=3, inputs_per_index_line=2, lines_per_input=2)]
    return timeline, jobs
