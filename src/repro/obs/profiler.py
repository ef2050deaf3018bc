"""Statistical sampling profiler with span-stack phase attribution.

The span tracer answers *where the regions are*; this module answers
*where the interpreter time goes inside them*.  A daemon thread walks
``sys._current_frames()`` at a configurable rate, folds each thread's
Python stack into a collapsed-stack table (the flamegraph input format),
and joins every sample against the tracer's per-thread span stack so
each tick is attributed to one execution *phase*:

* ``aggregate`` — inside ``kernel.basic`` / ``kernel.mkl`` /
  ``kernel.compression`` gather-reduce spans;
* ``update`` — inside ``kernel.fusion`` / ``kernel.combined`` fused
  aggregate+update spans;
* ``backward`` — inside any ``kernel.backward.*`` (or the trainer's
  ``backward``) span;
* ``compress`` — inside compression codec spans;
* ``other`` — no kernel span open on that thread (data prep, Python
  glue, the trainer loop between kernels).

Sampling is *statistical*: with ``hz`` samples per second, a stack that
collects ``k`` ticks accounts for approximately ``k / hz`` seconds of
interpreter time.  The default rate is a prime (97 Hz) so periodic
workloads don't alias against the sampler.

Like every obs component the profiler has a null twin
(:data:`NULL_PROFILER`) and is zero-cost when disabled.  Executor
worker threads are sampled like any other thread, so their stacks land
in the same capture.

Export surfaces:

* :func:`write_collapsed` — ``phase;frame;frame;... count`` text, one
  line per unique stack, loadable by ``flamegraph.pl`` / speedscope;
* :meth:`ProfileData.to_dict` — the JSON block embedded in run reports
  (per-phase seconds, top-N self-time table, folded stacks, timeline);
* :func:`profile_diff` — compares two captures (run reports or bare
  profile blocks) per phase and per function with a relative regression
  threshold, powering ``repro profile diff``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..perf.attribution import span_phase

#: Version of the profile document layout (run-report ``profile`` block).
PROFILE_SCHEMA_VERSION = 1

#: Default sampling rate.  Prime, so fixed-period work (epoch loops,
#: chunk batches) doesn't phase-lock with the sampler and systematically
#: hide or inflate one stack.
DEFAULT_SAMPLING_HZ = 97.0

#: Deepest Python stack a sample folds; frames above are dropped.
MAX_STACK_DEPTH = 128

#: Unique (phase, stack) keys kept before new stacks collapse into one
#: overflow bucket — bounds memory on pathological recursion patterns.
MAX_UNIQUE_STACKS = 50_000

#: Timeline entries kept for the Perfetto instant-event export.
MAX_TIMELINE_EVENTS = 4096

#: Every phase a sample can land in (``SPAN_PHASES`` values + other).
SAMPLE_PHASES = ("aggregate", "update", "backward", "compress", "other")

_OVERFLOW_STACK = ("<overflow>",)


def phase_of_stack(span_names: Iterable[str]) -> str:
    """Phase of a sampled thread given its open spans, outermost first.

    The innermost span with a phase wins: a ``kernel.backward.basic``
    nested inside the trainer's ``backward`` still reads as backward,
    and a compression span inside a layer reads as compress.
    """
    for name in reversed(list(span_names)):
        phase = span_phase(name)
        if phase is not None:
            return phase
    return "other"


def frame_label(frame) -> str:
    """``module:function`` label of one Python frame."""
    code = frame.f_code
    module = frame.f_globals.get("__name__") or code.co_filename
    return f"{module}:{code.co_name}"


def fold_stack(frame, max_depth: int = MAX_STACK_DEPTH) -> Tuple[str, ...]:
    """Fold a leaf frame into a root→leaf tuple of frame labels."""
    labels: List[str] = []
    while frame is not None and len(labels) < max_depth:
        labels.append(frame_label(frame))
        frame = frame.f_back
    labels.reverse()
    return tuple(labels)


@dataclass
class ProfileData:
    """The result of one profiling session.

    ``stacks`` maps ``(phase, frames)`` — frames root→leaf — to sample
    counts.
    """

    hz: float = DEFAULT_SAMPLING_HZ
    samples: int = 0  # sampler ticks (one per wall interval)
    thread_samples: int = 0  # per-thread observations (>= samples)
    stacks: Dict[Tuple[str, Tuple[str, ...]], float] = field(default_factory=dict)
    phase_samples: Dict[str, float] = field(default_factory=dict)
    threads: Dict[str, float] = field(default_factory=dict)
    timeline: List[Tuple[float, str]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def record(
        self,
        phase: str,
        frames: Tuple[str, ...],
        thread_label: str,
        t_s: Optional[float] = None,
    ) -> None:
        """Account one thread observation (not a full tick)."""
        key = (phase, frames)
        if key not in self.stacks and len(self.stacks) >= MAX_UNIQUE_STACKS:
            key = (phase, _OVERFLOW_STACK)
        self.stacks[key] = self.stacks.get(key, 0.0) + 1.0
        self.phase_samples[phase] = self.phase_samples.get(phase, 0.0) + 1.0
        self.threads[thread_label] = self.threads.get(thread_label, 0.0) + 1.0
        self.thread_samples += 1
        if t_s is not None and len(self.timeline) < MAX_TIMELINE_EVENTS:
            self.timeline.append((float(t_s), phase))

    def seconds(self, count: float) -> float:
        """Estimated seconds a sample count represents at this rate."""
        return count / self.hz if self.hz > 0 else 0.0

    @property
    def phase_seconds(self) -> Dict[str, float]:
        return {p: self.seconds(c) for p, c in sorted(self.phase_samples.items())}

    def top_self(self, n: int = 15) -> List[Tuple[str, float, float]]:
        """Top-``n`` leaf frames by self samples: (label, samples, s)."""
        self_counts: Dict[str, float] = {}
        for (_, frames), count in self.stacks.items():
            if frames:
                label = frames[-1]
                self_counts[label] = self_counts.get(label, 0.0) + count
        ranked = sorted(self_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(label, count, self.seconds(count)) for label, count in ranked[:n]]

    # ------------------------------------------------------------------
    def collapsed_lines(self) -> List[str]:
        """Deterministic ``phase;frame;... count`` flamegraph lines."""
        lines = []
        for (phase, frames), count in sorted(self.stacks.items()):
            stack = ";".join((phase,) + frames)
            lines.append(f"{stack} {int(round(count))}")
        return lines

    def to_dict(self) -> Dict[str, Any]:
        """The JSON ``profile`` block embedded in run reports."""
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "hz": self.hz,
            "samples": self.samples,
            "thread_samples": self.thread_samples,
            "duration_estimate_s": self.seconds(float(self.samples)),
            "phases": {
                phase: {"samples": count, "seconds": self.seconds(count)}
                for phase, count in sorted(self.phase_samples.items())
            },
            "threads": dict(sorted(self.threads.items())),
            "top": [
                {"function": label, "self_samples": count, "self_seconds": secs}
                for label, count, secs in self.top_self(25)
            ],
            "folded": {
                ";".join((phase,) + frames): count
                for (phase, frames), count in sorted(self.stacks.items())
            },
            "timeline": [[t, phase] for t, phase in self.timeline],
        }

def write_collapsed(path: str, data: ProfileData) -> int:
    """Write the flamegraph collapsed-stack file; returns the line count."""
    lines = data.collapsed_lines()
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


def span_phase_seconds(records: Iterable[Mapping[str, Any]]) -> Dict[str, float]:
    """Wall seconds per phase from *kernel* span records.

    Only ``kernel.*`` spans are summed — the trainer's enclosing
    ``backward``/``layer`` spans nest kernel spans and would double
    count.  This is the wall-time side the sampled-phase table is
    validated against (same top phase on a healthy capture).
    """
    totals: Dict[str, float] = {}
    for rec in records:
        name = rec.get("name", "")
        if not name.startswith("kernel."):
            continue
        phase = span_phase(name)
        if phase is None:
            continue
        totals[phase] = totals.get(phase, 0.0) + float(rec.get("duration_s", 0.0))
    return dict(sorted(totals.items()))


def render_profile(
    data: ProfileData,
    span_seconds: Optional[Mapping[str, float]] = None,
    top_n: int = 10,
) -> str:
    """Human-readable per-phase and top-N self-time tables."""
    lines = [
        f"sampled profile: {data.samples} ticks at {data.hz:g} Hz "
        f"({data.thread_samples} thread samples)"
    ]
    total = sum(data.phase_samples.values())
    lines.append(f"{'phase':<12} {'samples':>9} {'seconds':>9} {'share':>7}"
                 + ("  span wall" if span_seconds else ""))
    by_count = sorted(data.phase_samples.items(), key=lambda kv: (-kv[1], kv[0]))
    for phase, count in by_count:
        share = 100.0 * count / total if total else 0.0
        line = (
            f"{phase:<12} {count:>9.0f} {data.seconds(count):>9.3f} {share:>6.1f}%"
        )
        if span_seconds:
            wall = span_seconds.get(phase)
            line += f"  {wall:>8.3f}s" if wall is not None else "         -"
        lines.append(line)
    top = data.top_self(top_n)
    if top:
        lines.append("")
        lines.append(f"top {len(top)} functions by self time:")
        for label, count, secs in top:
            lines.append(f"  {secs:>8.3f}s {count:>7.0f}  {label}")
    return "\n".join(lines)


class NullSamplingProfiler:
    """Disabled profiler: no thread, no samples, no data."""

    enabled = False
    hz = 0.0
    data: Optional[ProfileData] = None

    def start(self) -> "NullSamplingProfiler":
        return self

    def stop(self) -> Optional[ProfileData]:
        return None

    def sample_once(self) -> int:
        return 0

    def __enter__(self) -> "NullSamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


NULL_PROFILER = NullSamplingProfiler()


class SamplingProfiler:
    """Daemon-thread sampler joining frames against the span tracer.

    Args:
        tracer: the tracer whose per-thread span stacks attribute each
            sample to a phase; ``None`` (or a null tracer) means every
            sample lands in ``other``.
        hz: sampling rate; each tick walks every live thread's frames.
        registry: optional metrics registry receiving a cumulative
            ``profiler.samples`` counter (one increment per tick).
    """

    enabled = True

    def __init__(
        self,
        tracer=None,
        hz: float = DEFAULT_SAMPLING_HZ,
        registry=None,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"sampling hz must be positive, got {hz}")
        self.tracer = tracer
        self.hz = float(hz)
        self.registry = registry
        self.data = ProfileData(hz=self.hz)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._thread_ident: Optional[int] = None
        self._epoch_perf = time.perf_counter()

    # ------------------------------------------------------------------
    def _clock(self) -> float:
        """Sample timestamps on the tracer's clock when there is one."""
        if self.tracer is not None and hasattr(self.tracer, "clock"):
            return self.tracer.clock()
        return time.perf_counter() - self._epoch_perf

    def sample_once(self) -> int:
        """Walk every live thread once; returns threads observed.

        ``sys._current_frames()`` is a consistent snapshot taken under
        the GIL; a thread that exits between the snapshot and the fold
        leaves a frame object that is still safe to walk (frames keep
        their ``f_back`` chain alive), so mid-walk exits lose nothing.
        """
        t_s = self._clock()
        frames = sys._current_frames()
        names = {t.ident: t.name for t in threading.enumerate()}
        observed = 0
        for tid, frame in frames.items():
            if tid == self._thread_ident:
                continue  # never sample the sampler
            if self.tracer is not None and getattr(self.tracer, "enabled", False):
                phase = phase_of_stack(self.tracer.stack_names(tid))
            else:
                phase = "other"
            label = names.get(tid) or f"thread-{tid}"
            self.data.record(
                phase,
                fold_stack(frame),
                label,
                t_s=t_s if observed == 0 else None,
            )
            observed += 1
        self.data.samples += 1
        if self.registry is not None and getattr(self.registry, "enabled", False):
            self.registry.inc("profiler.samples")
        return observed

    def _run(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            self.sample_once()

    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        """Spawn the daemon sampling thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-sampling-profiler", daemon=True
            )
            self._thread.start()
            self._thread_ident = self._thread.ident
        return self

    def stop(self) -> ProfileData:
        """Stop the thread; returns the collected :class:`ProfileData`."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
            self._thread_ident = None
        return self.data

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Capture comparison — the ``repro profile diff`` engine.
# ----------------------------------------------------------------------

#: Relative growth that flags a phase/function as regressed.
DEFAULT_DIFF_THRESHOLD = 0.25

#: Absolute-seconds noise floor below which deltas are never regressions
#: (one sample at the default rate is ~10 ms; jitter below this is noise).
DEFAULT_DIFF_MIN_SECONDS = 0.02


@dataclass
class DiffRow:
    """One compared quantity: seconds before, after, and the delta."""

    kind: str  # "phase" | "function"
    name: str
    a_seconds: float
    b_seconds: float
    regressed: bool

    @property
    def delta_seconds(self) -> float:
        return self.b_seconds - self.a_seconds

    @property
    def ratio(self) -> float:
        if self.a_seconds <= 0.0:
            return float("inf") if self.b_seconds > 0.0 else 1.0
        return self.b_seconds / self.a_seconds


@dataclass
class ProfileDiff:
    """Comparison of two profile captures (A = baseline, B = current)."""

    threshold: float
    min_seconds: float
    rows: List[DiffRow] = field(default_factory=list)

    @property
    def regressions(self) -> List[DiffRow]:
        return [row for row in self.rows if row.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"profile diff (threshold {self.threshold:.0%}, "
            f"noise floor {self.min_seconds:g}s)"
        ]
        for kind, title in (("phase", "phases (gated)"), ("function", "functions")):
            rows = [r for r in self.rows if r.kind == kind]
            if not rows:
                continue
            lines.append(f"{title}:")
            lines.append(
                f"  {'baseline':>10} {'current':>10} {'delta':>10} {'ratio':>7}  name"
            )
            for row in rows:
                ratio = "inf" if row.ratio == float("inf") else f"{row.ratio:.2f}x"
                flag = "  REGRESSED" if row.regressed else ""
                lines.append(
                    f"  {row.a_seconds:>9.3f}s {row.b_seconds:>9.3f}s "
                    f"{row.delta_seconds:>+9.3f}s {ratio:>7}  {row.name}{flag}"
                )
        verdict = "OK" if self.ok else (
            f"{len(self.regressions)} regression(s): "
            + ", ".join(r.name for r in self.regressions)
        )
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


def _phase_seconds_of(doc: Mapping[str, Any]) -> Dict[str, float]:
    return {
        phase: float(entry.get("seconds", 0.0))
        for phase, entry in (doc.get("phases") or {}).items()
    }


def _function_seconds_of(doc: Mapping[str, Any]) -> Dict[str, float]:
    return {
        str(entry.get("function")): float(entry.get("self_seconds", 0.0))
        for entry in doc.get("top") or []
        if entry.get("function")
    }


def load_profile_document(source: Union[str, Mapping[str, Any]]) -> Dict[str, Any]:
    """Extract the profile block from a path or already-loaded document.

    Accepts a bare profile block (``{"hz": ..., "phases": ...}``) or a
    full run report carrying one under ``"profile"``.
    """
    if isinstance(source, str):
        with open(source) as handle:
            doc = json.load(handle)
    else:
        doc = dict(source)
    if "profile" in doc and isinstance(doc["profile"], dict):
        doc = doc["profile"]
    if "phases" not in doc:
        raise ValueError(
            "document has no sampled profile (run with --sampling to capture one)"
        )
    return doc


def profile_diff(
    a: Union[str, Mapping[str, Any]],
    b: Union[str, Mapping[str, Any]],
    threshold: float = DEFAULT_DIFF_THRESHOLD,
    min_seconds: float = DEFAULT_DIFF_MIN_SECONDS,
) -> ProfileDiff:
    """Compare capture ``b`` against baseline ``a``.

    A row regresses when current exceeds baseline by more than
    ``threshold`` (relative) *and* the absolute growth clears
    ``min_seconds`` — both gates, so tiny captures can't trip the
    relative test on sampling noise.  Only phases gate the verdict;
    per-function rows are reported for localization but a function
    moving inside a stable phase (e.g. an inlining change) is not an
    SLO breach by itself.
    """
    doc_a = load_profile_document(a)
    doc_b = load_profile_document(b)
    diff = ProfileDiff(threshold=threshold, min_seconds=min_seconds)

    phases_a = _phase_seconds_of(doc_a)
    phases_b = _phase_seconds_of(doc_b)
    for name in sorted(set(phases_a) | set(phases_b)):
        a_s = phases_a.get(name, 0.0)
        b_s = phases_b.get(name, 0.0)
        regressed = (b_s - a_s) > max(min_seconds, threshold * a_s)
        diff.rows.append(DiffRow("phase", name, a_s, b_s, regressed))

    funcs_a = _function_seconds_of(doc_a)
    funcs_b = _function_seconds_of(doc_b)
    moved = sorted(
        set(funcs_a) | set(funcs_b),
        key=lambda f: -abs(funcs_b.get(f, 0.0) - funcs_a.get(f, 0.0)),
    )
    for name in moved[:15]:
        diff.rows.append(
            DiffRow(
                "function", name, funcs_a.get(name, 0.0), funcs_b.get(name, 0.0),
                regressed=False,
            )
        )
    return diff
