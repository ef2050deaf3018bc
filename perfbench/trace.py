"""In-memory span recorder installed from the benchmark's side only.

A span is one call into a layer: name, start, end, the span that caused
it (the innermost open span on the same thread), an op id shared by all
spans of one epoch or request, and an optional tag (the shard number).
Spans are made by wrapping callables *from outside* -- an attribute of
an instance, a class or a module is replaced by a recording wrapper and
put back by :meth:`Recorder.restore` -- so nothing under ``src/repro``
knows it is being traced.  Spans stay in memory until the workload ends.

Self time of a span is its duration minus the time its children cover.
Children run on their parent's thread, one at a time, so the interval
they cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    op: int
    tag: Any
    start: float = 0.0
    end: float = 0.0
    work: float = 0.0  # units of work the call did, when counted

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Cell:
    """Spans of one group added up."""

    total_s: float = 0.0
    self_s: float = 0.0


class Recorder:
    def __init__(self) -> None:
        self.spans: Dict[int, Span] = {}
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()
        self._wrapped: List[Tuple[Any, str, Any, bool]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        tag: Optional[Callable[..., Any]] = None,
        work: Optional[Callable[[Any], float]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span.

        ``tag`` is called with the wrapped call's positional arguments
        (for a class attribute the first one is the instance) and its
        result is stored on the span; a span without one inherits its
        parent's.  ``work`` is called with the call's return value and
        counts the work it did, so counts are taken where spans are.
        """
        original = getattr(owner, attr)
        had_own = attr in vars(owner)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            try:
                stack = self._local.stack
            except AttributeError:
                stack = self._local.stack = []
            if stack:
                parent = stack[-1]
                span = Span(next(self._ids), name, parent.id, parent.op, parent.tag)
            else:
                span = Span(next(self._ids), name, None, next(self._ops), None)
            if tag is not None:
                span.tag = tag(*args)
            self.spans[span.id] = span
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if work is not None:
                span.work = work(result)
            return result

        setattr(owner, attr, wrapper)
        self._wrapped.append((owner, attr, original, had_own))

    def restore(self) -> None:
        """Put every wrapped attribute back the way it was."""
        for owner, attr, original, had_own in reversed(self._wrapped):
            if had_own:
                setattr(owner, attr, original)
            else:  # an instance attribute shadowing the class's method
                delattr(owner, attr)
        self._wrapped.clear()

    # ------------------------------------------------------------------
    def by_op(
        self, key: Callable[[Span], Any] = lambda span: span.name
    ) -> List[Dict[Any, Cell]]:
        """Duration and self time of the spans of each op (epoch or
        request) added up by ``key``; one dict per op, in op order."""
        spans = list(self.spans.values())
        self_s = {span.id: span.duration for span in spans}
        for span in spans:
            if span.parent is not None:
                self_s[span.parent] -= span.duration
        ops: Dict[int, Dict[Any, Cell]] = defaultdict(lambda: defaultdict(Cell))
        for span in spans:
            cell = ops[span.op][key(span)]
            cell.total_s += span.duration
            cell.self_s += max(0.0, self_s[span.id])
        return [ops[op] for op in sorted(ops)]

    def named(self) -> Dict[str, List[Span]]:
        """Every span under its name, in start order."""
        out: Dict[str, List[Span]] = defaultdict(list)
        for span in sorted(list(self.spans.values()), key=lambda span: span.start):
            out[span.name].append(span)
        return out

    def dump(self, path: str, **extra: Any) -> None:
        """Append every span to a JSONL file."""
        with open(path, "a") as handle:
            for span in list(self.spans.values()):
                handle.write(json.dumps({**extra, **asdict(span)}) + "\n")
