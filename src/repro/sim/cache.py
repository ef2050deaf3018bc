"""Set-associative LRU cache model.

Used by the trace-driven hardware evaluation (Section 7.3): per-core L1D
and L2, plus the shared L3.  Accesses are at cache-line granularity; the
model tracks hits, misses, evictions, and supports explicit installs
(the DMA engine writes aggregation results straight into L2 —
Section 5.2).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict


@dataclass
class CacheStats:
    """Access counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    installs: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A set-associative cache with true-LRU replacement.

    Args:
        size_bytes: total capacity.
        ways: associativity.
        line_bytes: cache line size (64 in the modeled machine).
        name: label for reports.
    """

    def __init__(
        self, size_bytes: int, ways: int, line_bytes: int = 64, name: str = "cache"
    ) -> None:
        if size_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ValueError("cache dimensions must be positive")
        num_lines = size_bytes // line_bytes
        if num_lines < ways:
            raise ValueError(
                f"{name}: capacity {size_bytes}B holds fewer lines than "
                f"{ways} ways"
            )
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = max(1, num_lines // ways)
        self.name = name
        self.stats = CacheStats()
        # set index -> OrderedDict of line tags (LRU order: oldest first).
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}

    # ------------------------------------------------------------------
    def _locate(self, addr: int) -> "tuple[int, int]":
        line = addr // self.line_bytes
        return line % self.num_sets, line

    def access(self, addr: int, write: bool = False) -> bool:
        """Reference a line; returns True on hit.

        Misses allocate the line (write-allocate) and may evict LRU.
        """
        set_idx, tag = self._locate(addr)
        ways = self._sets.setdefault(set_idx, OrderedDict())
        self.stats.accesses += 1
        if tag in ways:
            ways.move_to_end(tag)
            if write:
                ways[tag] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._install(set_idx, tag, dirty=write)
        return False

    def contains(self, addr: int) -> bool:
        """Peek without touching LRU state or counters."""
        set_idx, tag = self._locate(addr)
        return tag in self._sets.get(set_idx, ())

    def install(self, addr: int, dirty: bool = False) -> None:
        """Place a line without counting it as a demand access.

        The DMA engine uses this to push aggregation results into L2
        (Section 5.2: "we opt to write the results of the aggregation to
        L2").
        """
        set_idx, tag = self._locate(addr)
        self.stats.installs += 1
        ways = self._sets.setdefault(set_idx, OrderedDict())
        if tag in ways:
            ways.move_to_end(tag)
            ways[tag] = ways[tag] or dirty
            return
        self._install(set_idx, tag, dirty)

    def invalidate(self, addr: int) -> None:
        set_idx, tag = self._locate(addr)
        ways = self._sets.get(set_idx)
        if ways is not None:
            ways.pop(tag, None)

    def _install(self, set_idx: int, tag: int, dirty: bool) -> None:
        ways = self._sets.setdefault(set_idx, OrderedDict())
        if len(ways) >= self.ways:
            ways.popitem(last=False)
            self.stats.evictions += 1
        ways[tag] = dirty

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SetAssociativeCache({self.name}, {self.size_bytes}B, "
            f"{self.ways}-way, {self.num_sets} sets)"
        )
