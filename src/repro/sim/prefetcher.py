"""Hardware stream prefetcher model.

The modeled cores sustain more outstanding misses than their 12 L1 fill
buffers because the L2 stream prefetchers run ahead of sequential
accesses (the basis of ``CORE_EFFECTIVE_MLP`` in
:mod:`repro.sim.core_sim`).  This module models that mechanism so its
contribution can be measured instead of assumed:

* a stream table tracks recent miss addresses per core;
* when ``train_threshold`` consecutive misses advance through adjacent
  lines, a stream is confirmed and the prefetcher issues ``degree``
  lines ahead of it;
* gather traffic (one or two lines per feature vector, then a jump to an
  unrelated vector) trains poorly — exactly why aggregation defeats
  hardware prefetching and the paper adds software prefetch (§4.1) and,
  ultimately, the DMA engine.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List

LINE = 64


@dataclass
class PrefetchStats:
    """Effectiveness counters."""

    accesses: int = 0
    streams_confirmed: int = 0
    prefetches_issued: int = 0
    useful_prefetches: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of accesses served by a prior prefetch."""
        return self.useful_prefetches / self.accesses if self.accesses else 0.0

    @property
    def accuracy(self) -> float:
        """Fraction of issued prefetches that were ever used."""
        if self.prefetches_issued == 0:
            return 0.0
        return self.useful_prefetches / self.prefetches_issued


class StreamPrefetcher:
    """A next-N-lines stream prefetcher with a small training table."""

    #: Lines fetched ahead once a stream is confirmed.
    degree = 4
    #: Consecutive +1-line steps needed to confirm a stream.
    train_threshold = 2
    #: Concurrent streams tracked.
    table_entries = 16
    #: Capacity of the prefetch staging storage, in lines.
    prefetch_buffer_lines = 128

    def __init__(self) -> None:
        self.stats = PrefetchStats()
        # line -> consecutive-hit count, LRU-ordered.
        self._streams: "OrderedDict[int, int]" = OrderedDict()
        self._staged: "OrderedDict[int, bool]" = OrderedDict()

    # ------------------------------------------------------------------
    def access(self, addr: int) -> bool:
        """Observe one demand access; returns True if a prefetch covers it."""
        line = addr // LINE
        self.stats.accesses += 1
        covered = line in self._staged
        if covered:
            del self._staged[line]
            self.stats.useful_prefetches += 1

        # Train: did this access extend a tracked stream?
        prev = line - 1
        if prev in self._streams:
            count = self._streams.pop(prev) + 1
            self._streams[line] = count
            if count >= self.train_threshold:
                self._confirm(line)
        else:
            self._streams[line] = 1
            if len(self._streams) > self.table_entries:
                self._streams.popitem(last=False)
        return covered

    def _confirm(self, line: int) -> None:
        self.stats.streams_confirmed += 1
        for ahead in range(1, self.degree + 1):
            staged_line = line + ahead
            if staged_line in self._staged:
                continue
            self._staged[staged_line] = True
            self.stats.prefetches_issued += 1
            if len(self._staged) > self.prefetch_buffer_lines:
                self._staged.popitem(last=False)

    # ------------------------------------------------------------------
    def run_trace(self, addresses: List[int]) -> PrefetchStats:
        """Feed a whole address trace; returns the accumulated stats."""
        for addr in addresses:
            self.access(addr)
        return self.stats

    def reset(self) -> None:
        self.stats = PrefetchStats()
        self._streams.clear()
        self._staged.clear()
