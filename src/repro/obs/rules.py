"""Declarative rules evaluated on live telemetry: the one run guard.

A rule file declares conditions over any metric in the registry snapshot
— or over the per-epoch quantities the trainer publishes as ``train.*``
gauges — and the engine evaluates them on every scrape or epoch.  The
training numerics guards are three such rules
(:data:`DEFAULT_TRAIN_RULES`, what ``repro train --health`` loads).

Grammar — one rule per line, ``#`` starts a comment::

    [name:] <metric> [<stat>] <op> <threshold> [for <K>] [fatal]

* ``metric`` — dotted registry name (``proc.rss_bytes``,
  ``train.loss``, ``kernel.backward.time_ms``);
* ``stat`` — which number of the metric document to judge: ``value``
  (default; a counter's or gauge's scalar), ``count`` / ``total`` /
  ``mean`` / ``min`` / ``max`` / ``p50`` / ``p95`` / ``p99`` (histogram
  summaries), ``rate`` (delta per second between consecutive
  evaluations — counters), or ``rate_of_change`` (plain delta between
  consecutive evaluations — gauges like ``train.loss``);
* ``op`` — ``<  <=  >  >=  ==  !=``;
* ``for K`` — tolerance: the alert fires only after K *consecutive*
  violating evaluations (default 1).  A compliant evaluation resets
  the streak;
* ``fatal`` — the alert stops the run it judges: a training run raises
  :class:`FatalRuleError` after writing the epoch's event.  Commands
  that only watch (``repro serve``, ``repro top``) report a fatal alert
  like any other.

A rule states the condition that must **hold** (the SLO); an
:class:`Alert` is raised when it does not.  Examples::

    rss_cap:    proc.rss_bytes < 2e9
    loss_drops: train.loss rate_of_change <= 0 for 3
    bwd_p99:    kernel.backward.time_ms p99 < 250

Comparisons against NaN are false, so ``train.loss < 1e30`` also fires
on a NaN'd loss.  A metric missing from the snapshot *skips* the rule
(scraping before a subsystem starts must not page);
``rate``/``rate_of_change`` additionally skip their first evaluation.

Firing surfaces three ways: the returned :class:`Alert` objects, the
``alerts.*`` metric family (``alerts.active`` gauge, ``alerts.fired``
counter, per-rule ``alerts.<name>`` gauges and ``alerts.<name>.fired``
counters) in whatever registry is active, and — through the callers —
nonzero ``repro top --check`` exits plus run-report entries.  A rule
name therefore holds no ``.`` and is none of ``fired`` /
``evaluations`` / ``active``, so it can never land on another family
member.
"""

from __future__ import annotations

import math
import operator
import re
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

#: Stats resolvable straight from a metric's exported document.
DOCUMENT_STATS = ("value", "count", "total", "mean", "min", "max",
                  "p50", "p95", "p99")

#: Stats computed between consecutive evaluations.
DELTA_STATS = ("rate", "rate_of_change")

_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

_OP_SLUGS = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge",
             "==": "eq", "!=": "ne"}

_METRIC_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

#: Names of the engine's own ``alerts.*`` members; a rule named so
#: would publish over them.
_RESERVED_NAMES = ("fired", "evaluations", "active")


@dataclass(frozen=True)
class Rule:
    """One declarative SLO: ``metric [stat] op threshold [for K] [fatal]``."""

    name: str
    metric: str
    stat: str
    op: str
    threshold: float
    for_count: int = 1
    source: str = ""
    fatal: bool = False

    def holds(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)

    def __str__(self) -> str:
        stat = f" {self.stat}" if self.stat != "value" else ""
        tail = f" for {self.for_count}" if self.for_count > 1 else ""
        if self.fatal:
            tail += " fatal"
        return f"{self.name}: {self.metric}{stat} {self.op} {self.threshold:g}{tail}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "stat": self.stat,
            "op": self.op,
            "threshold": self.threshold,
            "for_count": self.for_count,
            "fatal": self.fatal,
        }


@dataclass
class Alert:
    """One firing of a rule: the observed value that broke the SLO."""

    rule: str
    metric: str
    stat: str
    op: str
    threshold: float
    value: float
    consecutive: int
    evaluation: int
    fatal: bool = False

    @property
    def message(self) -> str:
        stat = f" {self.stat}" if self.stat != "value" else ""
        return (
            f"{self.rule}: {self.metric}{stat} = {self.value:g} "
            f"violates {self.op} {self.threshold:g} "
            f"({self.consecutive} consecutive)"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "metric": self.metric,
            "stat": self.stat,
            "op": self.op,
            "threshold": self.threshold,
            "value": self.value,
            "consecutive": self.consecutive,
            "evaluation": self.evaluation,
            "fatal": self.fatal,
        }

    def __str__(self) -> str:
        return f"[{'fatal' if self.fatal else 'alert'}] {self.message}"


class RuleParseError(ValueError):
    """A rule line that does not match the grammar."""


class FatalRuleError(RuntimeError):
    """A ``fatal`` rule fired: the training run it judges stops.

    ``detail`` (when given) is one more line of diagnosis, e.g. where
    the first non-finite value is.
    """

    def __init__(self, alerts: List[Alert], epoch: int, detail: str = "") -> None:
        self.alerts = list(alerts)
        self.epoch = epoch
        lines = [f"fatal rule fired at epoch {epoch}:"]
        lines.extend(f"  {alert}" for alert in self.alerts)
        if detail:
            lines.append(f"  {detail}")
        super().__init__("\n".join(lines))


def parse_rule(text: str) -> Rule:
    """Parse one rule line (see the module docstring for the grammar)."""
    source = text.strip()
    body = source
    name = None
    if ":" in body:
        candidate, rest = body.split(":", 1)
        if re.fullmatch(r"[A-Za-z_][\w.-]*", candidate.strip()):
            name = candidate.strip()
            body = rest.strip()
            if "." in name or name in _RESERVED_NAMES:
                raise RuleParseError(
                    f"{source!r}: rule name {name!r} would publish over the "
                    f"engine's own alerts.* metrics (a name holds no '.' "
                    f"and is none of {_RESERVED_NAMES})"
                )
    tokens = body.split()
    fatal = bool(tokens) and tokens[-1] == "fatal"
    if fatal:
        tokens = tokens[:-1]
    for_count = 1
    if len(tokens) >= 2 and tokens[-2] == "for":
        try:
            for_count = int(tokens[-1])
        except ValueError as error:
            raise RuleParseError(
                f"{source!r}: 'for' expects an integer, got {tokens[-1]!r}"
            ) from error
        if for_count < 1:
            raise RuleParseError(f"{source!r}: 'for' count must be >= 1")
        tokens = tokens[:-2]
    if len(tokens) == 3:
        metric, op, threshold_text = tokens
        stat = "value"
    elif len(tokens) == 4:
        metric, stat, op, threshold_text = tokens
    else:
        raise RuleParseError(
            f"{source!r}: expected '[name:] metric [stat] op threshold "
            f"[for K] [fatal]', got {len(tokens)} token(s)"
        )
    if not _METRIC_RE.match(metric):
        raise RuleParseError(f"{source!r}: bad metric name {metric!r}")
    if stat not in DOCUMENT_STATS and stat not in DELTA_STATS:
        raise RuleParseError(
            f"{source!r}: unknown stat {stat!r} "
            f"(expected one of {DOCUMENT_STATS + DELTA_STATS})"
        )
    if op not in _OPS:
        raise RuleParseError(
            f"{source!r}: unknown operator {op!r} (expected {tuple(_OPS)})"
        )
    try:
        threshold = float(threshold_text)
    except ValueError as error:
        raise RuleParseError(
            f"{source!r}: threshold {threshold_text!r} is not a number"
        ) from error
    if math.isnan(threshold):
        raise RuleParseError(
            f"{source!r}: threshold is NaN, so the rule could never fire"
        )
    if name is None:
        name = f"{metric}.{stat}.{_OP_SLUGS[op]}" if stat != "value" else (
            f"{metric}.{_OP_SLUGS[op]}"
        )
    return Rule(
        name=name, metric=metric, stat=stat, op=op,
        threshold=threshold, for_count=for_count, source=source, fatal=fatal,
    )


def parse_rules(text: str) -> List[Rule]:
    """Parse a rule file's text: one rule per line, ``#`` comments."""
    rules: List[Rule] = []
    seen: Dict[str, int] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rule = parse_rule(line)
        if rule.name in seen:
            raise RuleParseError(
                f"duplicate rule name {rule.name!r} "
                f"(lines {seen[rule.name]} and {number})"
            )
        seen[rule.name] = number
        rules.append(rule)
    return rules


def load_rules(path: str) -> List[Rule]:
    with open(path) as handle:
        return parse_rules(handle.read())


#: Default SLO envelope for the serving plane (``repro serve`` uses it
#: when no ``--rules`` file is given).  Thresholds are deliberately
#: loose — they page on pathology (multi-second tail latency, a standing
#: queue, reject storms), not on a busy-but-healthy server.
DEFAULT_SERVE_RULES = """\
# serving-plane SLOs (defaults; override with --rules)
serve_p99:     serve.latency.request_s p99 < 2.5
serve_queue:   serve.queue_depth <= 512 for 3
serve_rejects: serve.rejected rate < 50 for 3
serve_errors:  serve.errors rate < 10 for 3
"""


def default_serve_rules() -> List[Rule]:
    """The parsed :data:`DEFAULT_SERVE_RULES` set."""
    return parse_rules(DEFAULT_SERVE_RULES)


#: The training numerics guards (``repro train --health``) over the
#: ``train.*`` gauges a :class:`~repro.nn.Trainer` with a rule engine
#: publishes.  A stall only warns, on every epoch past the window.
DEFAULT_TRAIN_RULES = """\
# training numerics guards (--health)
non_finite:        train.nonfinite == 0 fatal
loss_divergence:   train.loss_over_best <= 4 fatal
convergence_stall: train.epochs_since_best < 20
"""


def default_train_rules() -> List[Rule]:
    """The parsed :data:`DEFAULT_TRAIN_RULES` set."""
    return parse_rules(DEFAULT_TRAIN_RULES)


@dataclass
class _RuleState:
    consecutive: int = 0
    fired_total: int = 0
    active: bool = False
    last_value: Optional[float] = None
    last_time: Optional[float] = None


class RuleEngine:
    """Evaluates a rule set against successive metric snapshots.

    Stateful on purpose: ``for K`` streaks, ``rate`` /
    ``rate_of_change`` deltas, and the fired history all live across
    evaluations.  One engine per run; feed it every scrape or epoch.

    Args:
        rules: parsed :class:`Rule` list (or a rule-file text).
        registry: where ``alerts.*`` metrics are published.  ``None``
            resolves the process-wide active registry at each
            evaluation, so the null registry keeps this zero-cost.
    """

    def __init__(self, rules, registry=None) -> None:
        if isinstance(rules, str):
            rules = parse_rules(rules)
        self.rules: List[Rule] = list(rules)
        seen = set()
        for rule in self.rules:  # e.g. a --rules file against the defaults
            if rule.name in seen:
                raise RuleParseError(f"duplicate rule name {rule.name!r}")
            seen.add(rule.name)
        self.registry = registry
        self.evaluations = 0
        self.alerts: List[Alert] = []
        self._state: Dict[str, _RuleState] = {
            rule.name: _RuleState() for rule in self.rules
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _document_value(doc: Mapping[str, Any], stat: str) -> Optional[float]:
        value = doc.get(stat)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        return None

    def _resolve(
        self, rule: Rule, state: _RuleState,
        snapshot: Mapping[str, Mapping[str, Any]], now: float,
    ) -> Optional[float]:
        doc = snapshot.get(rule.metric)
        if doc is None:
            return None
        if rule.stat in DELTA_STATS:
            current = self._document_value(doc, "value")
            if current is None:
                return None
            previous, previous_t = state.last_value, state.last_time
            state.last_value, state.last_time = current, now
            if previous is None:
                return None  # first sight: no delta yet
            if rule.stat == "rate_of_change":
                return current - previous
            elapsed = now - (previous_t if previous_t is not None else now)
            return (current - previous) / elapsed if elapsed > 0 else None
        return self._document_value(doc, rule.stat)

    def evaluate(
        self,
        snapshot: Mapping[str, Mapping[str, Any]],
        now: Optional[float] = None,
    ) -> List[Alert]:
        """Judge every rule against one snapshot; return new alerts.

        An alert is returned for each rule whose condition is violated
        *and* whose consecutive-violation streak has reached its ``for``
        tolerance this evaluation (and on every violating evaluation
        past it, so long-running breaches keep reporting).
        """
        now = time.monotonic() if now is None else now
        self.evaluations += 1
        fired: List[Alert] = []
        for rule in self.rules:
            state = self._state[rule.name]
            value = self._resolve(rule, state, snapshot, now)
            if value is None:
                continue  # metric absent / first delta: skip, don't page
            if rule.holds(value):
                state.consecutive = 0
                state.active = False
                continue
            state.consecutive += 1
            state.active = state.consecutive >= rule.for_count
            if state.active:
                state.fired_total += 1
                fired.append(
                    Alert(
                        rule=rule.name,
                        metric=rule.metric,
                        stat=rule.stat,
                        op=rule.op,
                        threshold=rule.threshold,
                        value=value,
                        consecutive=state.consecutive,
                        evaluation=self.evaluations,
                        fatal=rule.fatal,
                    )
                )
        self.alerts.extend(fired)
        self._publish(fired)
        return fired

    def _publish(self, fired: List[Alert]) -> None:
        registry = self.registry
        if registry is None:
            from . import get_metrics

            registry = get_metrics()
        registry.inc("alerts.evaluations")
        registry.set_gauge("alerts.active", float(len(self.active)))
        if fired:
            registry.inc("alerts.fired", len(fired))
        for rule in self.rules:
            state = self._state[rule.name]
            registry.set_gauge(f"alerts.{rule.name}", 1.0 if state.active else 0.0)
        for alert in fired:
            registry.inc(f"alerts.{alert.rule}.fired")

    # ------------------------------------------------------------------
    @property
    def active(self) -> List[str]:
        """Names of rules currently in violation (streak >= tolerance)."""
        return [r.name for r in self.rules if self._state[r.name].active]

    @property
    def ok(self) -> bool:
        """True when no rule has ever fired."""
        return not self.alerts

    def to_dict(self) -> Dict[str, Any]:
        """Run-report entry: the rule set plus every alert it raised."""
        return {
            "rules": [rule.to_dict() for rule in self.rules],
            "evaluations": self.evaluations,
            "alerts": [alert.to_dict() for alert in self.alerts],
            "active": self.active,
            "ok": self.ok,
        }

    def summary(self) -> str:
        if not self.rules:
            return "slo: no rules"
        if self.ok:
            return (
                f"slo: ok ({len(self.rules)} rule(s), "
                f"{self.evaluations} evaluation(s), no alerts)"
            )
        lines = [
            f"slo: {len(self.alerts)} alert(s) over "
            f"{self.evaluations} evaluation(s)"
        ]
        lines.extend(f"  {alert}" for alert in self.alerts)
        return "\n".join(lines)
