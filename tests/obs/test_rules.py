"""Unit tests for the declarative SLO rule engine."""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.rules import (
    Rule, RuleEngine, RuleParseError, default_serve_rules,
    default_train_rules, load_rules, parse_rule, parse_rules,
)


def gauge(value):
    return {"type": "gauge", "value": value}


def counter(value):
    return {"type": "counter", "value": value}


class TestParseRule:
    def test_minimal(self):
        rule = parse_rule("proc.rss_bytes < 2e9")
        assert (rule.metric, rule.stat, rule.op, rule.threshold, rule.for_count,
                rule.name) == ("proc.rss_bytes", "value", "<", 2e9, 1,
                               "proc.rss_bytes.lt")

    def test_named_with_stat_and_for(self):
        rule = parse_rule("bwd_p99: kernel.backward.time_ms p99 < 250 for 3")
        assert (rule.name, rule.stat, rule.for_count) == ("bwd_p99", "p99", 3)

    def test_rate_of_change(self):
        rule = parse_rule("loss_drops: train.loss rate_of_change <= 0 for 2")
        assert (rule.stat, rule.op) == ("rate_of_change", "<=")

    @pytest.mark.parametrize("text", [
        "just_one_token",
        "metric ~ 5",  # unknown operator
        "metric p42 < 5",  # unknown stat
        "metric < five",  # non-numeric threshold
        "metric < 5 for 0",  # for count must be >= 1
        "metric < 5 for x",  # non-integer for count
        "BadMetric! < 5",  # bad metric charset
        "train.loss > nan",  # NaN threshold: the rule could never fire
        "train.loss < -NaN",
    ])
    def test_rejects_bad_lines(self, text):
        with pytest.raises(RuleParseError):
            parse_rule(text)

    def test_infinite_threshold_is_legal(self):
        assert parse_rule("train.loss < inf").threshold == float("inf")

    def test_holds_uses_operator(self):
        assert parse_rule("m < 5").holds(4.0)
        assert not parse_rule("m < 5").holds(5.0)
        assert parse_rule("m != 0").holds(1.0)

    def test_nan_never_holds(self):
        # A NaN'd loss violates `train.loss < 1e30`: the non-finite
        # health guard expressed as one line of rule data.
        assert not parse_rule("train.loss < 1e30").holds(float("nan"))

    def test_str_round_trips_the_grammar(self):
        rule = parse_rule("cap: m.x p95 >= 2 for 4")
        assert parse_rule(str(rule)) == Rule(
            name="cap", metric="m.x", stat="p95", op=">=",
            threshold=2.0, for_count=4, source=str(rule),
        )


class TestParseRules:
    def test_comments_and_blanks(self):
        rules = parse_rules("# header comment\n\n"
                            "rss: proc.rss_bytes < 2e9  # trailing comment\n"
                            "train.loss < 10\n")
        assert [r.name for r in rules] == ["rss", "train.loss.lt"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(RuleParseError, match="duplicate"):
            parse_rules("a: m < 1\na: m < 2\n")

    def test_duplicate_names_cite_file_lines(self):
        with pytest.raises(RuleParseError, match="lines 3 and 4"):
            parse_rules("# header\n\na: x < 1\na: x < 2\n")

    def test_load_rules(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("cap: proc.rss_bytes < 1e9\n")
        assert [r.name for r in load_rules(str(path))] == ["cap"]


class TestReservedNames:
    """A rule name never lands on the engine's own ``alerts.*`` members."""

    @pytest.mark.parametrize("name", ["fired", "evaluations"])
    def test_counter_names_refused(self, name):
        # alerts.fired / alerts.evaluations are counters; the rule's
        # alerts.<name> gauge would be a type clash on the first alert.
        with pytest.raises(RuleParseError, match="alerts"):
            parse_rule(f"{name}: m < 1")

    def test_active_refused(self):
        # alerts.active counts the active rules; a rule's gauge would
        # overwrite it.
        with pytest.raises(RuleParseError, match="alerts"):
            parse_rule("active: m < 1")

    def test_dotted_name_refused(self):
        # Rule "a.fired"'s gauge alerts.a.fired is rule "a"'s counter.
        with pytest.raises(RuleParseError, match="alerts"):
            parse_rules("a: m < 1\na.fired: m < 1\n")

    def test_unnamed_rules_keep_dotted_default_names(self):
        assert parse_rule("m.x < 1").name == "m.x.lt"


class TestFatalMarker:
    def test_fatal_parses_after_for(self):
        rule = parse_rule("stop: train.loss p99 < 1 for 2 fatal")
        assert (rule.stat, rule.for_count, rule.fatal) == ("p99", 2, True)
        assert str(rule) == "stop: train.loss p99 < 1 for 2 fatal"
        assert parse_rule(str(rule)).fatal
        assert rule.to_dict()["fatal"] is True
        assert not parse_rule("m < 1").fatal

    def test_fatal_before_for_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule("m < 1 fatal for 2")

    def test_alert_carries_fatal(self):
        engine = RuleEngine("stop: m < 1 fatal\nwarn: m < 1")
        alerts = engine.evaluate({"m": gauge(5.0)})
        assert [(a.rule, a.fatal) for a in alerts] == [("stop", True), ("warn", False)]
        assert engine.to_dict()["alerts"][0]["fatal"] is True

    def test_default_train_rules(self):
        rules = default_train_rules()
        assert [(r.name, r.metric, r.fatal) for r in rules] == [
            ("non_finite", "train.nonfinite", True),
            ("loss_divergence", "train.loss_over_best", True),
            ("convergence_stall", "train.epochs_since_best", False),
        ]

    def test_engine_refuses_a_name_clash_between_rule_sets(self):
        with pytest.raises(RuleParseError, match="duplicate rule name 'non_finite'"):
            RuleEngine(default_train_rules() + parse_rules("non_finite: m < 1"))


class TestRuleEngine:
    def test_compliant_snapshot_raises_nothing(self):
        engine = RuleEngine("cap: m < 10")
        assert engine.evaluate({"m": gauge(5.0)}) == []
        assert engine.ok and engine.active == []

    def test_violation_fires_alert(self):
        engine = RuleEngine("cap: m < 10")
        alerts = engine.evaluate({"m": gauge(15.0)})
        assert [(a.rule, a.value) for a in alerts] == [("cap", 15.0)]
        assert not engine.ok and engine.active == ["cap"]
        assert "violates < 10" in alerts[0].message

    def test_missing_metric_skips(self):
        engine = RuleEngine("cap: m < 10")
        assert engine.evaluate({}) == []
        assert engine.ok

    def test_for_count_tolerance_and_reset(self):
        engine = RuleEngine("cap: m < 10 for 3")
        assert engine.evaluate({"m": gauge(99.0)}) == []
        assert engine.evaluate({"m": gauge(99.0)}) == []
        # A compliant evaluation resets the streak.
        assert engine.evaluate({"m": gauge(1.0)}) == []
        assert engine.evaluate({"m": gauge(99.0)}) == []
        assert engine.evaluate({"m": gauge(99.0)}) == []
        assert [a.consecutive for a in engine.evaluate({"m": gauge(99.0)})] == [3]

    def test_long_breach_keeps_reporting(self):
        engine = RuleEngine("cap: m < 10 for 2")
        engine.evaluate({"m": gauge(99.0)})
        assert len(engine.evaluate({"m": gauge(99.0)})) == 1
        assert len(engine.evaluate({"m": gauge(99.0)})) == 1
        assert len(engine.alerts) == 2

    def test_histogram_stat(self):
        engine = RuleEngine("p99: h p99 < 100")
        snap = {"h": {"type": "histogram", "p99": 250.0, "count": 10}}
        assert [a.value for a in engine.evaluate(snap)] == [250.0]

    def test_rate_of_change_skips_first_then_deltas(self):
        engine = RuleEngine("loss_drops: train.loss rate_of_change <= 0")
        assert engine.evaluate({"train.loss": gauge(2.0)}) == []  # first sight
        assert engine.evaluate({"train.loss": gauge(1.5)}) == []  # dropping
        alerts = engine.evaluate({"train.loss": gauge(1.9)})  # rising
        assert [a.value for a in alerts] == [pytest.approx(0.4)]

    def test_counter_rate(self):
        engine = RuleEngine("qps: c rate < 10")
        assert engine.evaluate({"c": counter(0.0)}, now=0.0) == []
        alerts = engine.evaluate({"c": counter(100.0)}, now=2.0)
        assert [a.value for a in alerts] == [pytest.approx(50.0)]

    def test_publishes_alert_metrics(self):
        registry = MetricsRegistry()
        engine = RuleEngine("cap: m < 10", registry=registry)
        engine.evaluate({"m": gauge(99.0)})
        engine.evaluate({"m": gauge(1.0)})
        snap = registry.snapshot()
        assert {name: snap[f"alerts.{name}"]["value"] for name in (
            "evaluations", "fired", "cap.fired", "cap", "active")} == {
            "evaluations": 2.0, "fired": 1.0, "cap.fired": 1.0,
            "cap": 0.0, "active": 0.0}  # cap recovered

    def test_to_dict_and_summary(self):
        engine = RuleEngine("cap: m < 10")
        engine.evaluate({"m": gauge(99.0)})
        doc = engine.to_dict()
        assert (doc["ok"], doc["rules"][0]["name"], doc["alerts"][0]["value"]) == (
            False, "cap", 99.0)
        assert "1 alert(s)" in engine.summary()

    def test_accepts_parsed_rule_list(self):
        engine = RuleEngine([parse_rule("cap: m < 10")])
        assert len(engine.rules) == 1


class TestDefaultServeRules:
    def test_parse_and_names(self):
        assert {rule.name for rule in default_serve_rules()} == {
            "serve_p99", "serve_queue", "serve_rejects", "serve_errors"}

    def test_quiet_service_fires_nothing(self):
        engine = RuleEngine(default_serve_rules())
        snapshot = {
            "serve.queue_depth": gauge(3.0),
            "serve.rejected": counter(0.0),
            "serve.errors": counter(0.0),
            "serve.latency.request_s": {"type": "histogram", "count": 10, "p99": 0.05},
        }
        for _ in range(4):
            engine.evaluate(snapshot)
        assert engine.ok

    def test_p99_breach_fires(self):
        engine = RuleEngine(default_serve_rules())
        engine.evaluate({"serve.latency.request_s": {
            "type": "histogram", "count": 5, "p99": 9.0}})
        assert not engine.ok
        assert any(a.rule == "serve_p99" for a in engine.alerts)
