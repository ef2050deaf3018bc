"""Unit tests for the run manifest, run-report building and the
telemetry singletons."""

import json
import platform

import numpy
import pytest

from repro import obs
from repro.bench.figures import PLAN
from repro.cli import main
from repro.graphs import load_dataset, synthetic_features
from repro.nn import build_model
from repro.obs import (
    RECORD_SCHEMA_VERSION, MetricsRegistry, Tracer, build_run_report,
    manifest, write_json,
)
from repro.obs.events import EpochEvent, EventLog
from repro.serve import InferenceService, ServingServer
from repro.tensors import SparsityProfile


class TestEnvironmentInfo:
    """The manifest: what ran, from which tree, where, on which numerics."""

    def test_required_keys(self):
        run = manifest("train", ["products", "--seed", "3"], {"seed": 3})
        assert list(run) == [
            "schema", "command", "argv", "config", "git_sha", "git_dirty",
            "host", "platform", "nproc", "python", "numpy", "scipy", "blas",
            "created_unix",
        ]
        assert run["schema"] == RECORD_SCHEMA_VERSION
        assert (run["command"], run["argv"], run["config"]) == (
            "train", ["products", "--seed", "3"], {"seed": 3})
        assert run["python"] == platform.python_version()
        assert run["numpy"] == numpy.__version__
        # The BLAS build NumPy reports, name and version.
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert run["blas"] == {"name": blas["name"], "version": blas["version"]}

    def test_json_serializable(self):
        run = manifest()
        assert json.loads(json.dumps(run)) == run


class TestBuildRunReport:
    def test_joins_spans_metrics_meta(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        with tracer.span("epoch"):
            with tracer.span("layer") as span:
                span.add_counters({"gathers": 4})
        metrics.inc("kernel.basic.gathers", 4)
        run = manifest("test", [], {"workers": 2})
        report = build_run_report(tracer, metrics, run)
        assert next(iter(report)) == "manifest"
        assert report["manifest"] is run
        assert len(report["spans"]) == 2
        [epoch] = report["span_tree"]
        assert (epoch["name"], epoch["children"][0]["name"]) == ("epoch", "layer")
        assert report["metrics"]["kernel.basic.gathers"]["value"] == 4.0
        assert report["counter_totals"] == {"gathers": 4.0}

    def test_empty_report(self):
        report = build_run_report()
        assert (report["spans"], report["metrics"]) == ([], {})
        json.dumps(report)

    def test_write_json(self, tmp_path):
        path = tmp_path / "run.json"
        write_json(str(path), build_run_report(manifest=manifest("t", [], {"x": 1})))
        assert json.loads(path.read_text())["manifest"]["config"] == {"x": 1}

    def test_embeds_epoch_events_from_event_log(self):
        log = EventLog(None)
        log.emit(EpochEvent(epoch=0, loss=1.0, train_accuracy=0.5, wall_time_s=0.01))
        report = build_run_report(events=log)
        assert [e["epoch"] for e in report["epoch_events"]] == [0]
        json.dumps(report)

    def test_embeds_events_from_plain_list(self):
        records = [{"kind": "epoch", "epoch": 0}]
        assert build_run_report(events=records)["epoch_events"] == records

    def test_embeds_sparsity_profile(self):
        profile = SparsityProfile()
        profile.add(1, 0.62)
        report = build_run_report(sparsity=profile)
        assert report["sparsity"]["last"] == {"1": 0.62}
        json.dumps(report)

    def test_no_extras_no_keys(self):
        report = build_run_report()
        assert "epoch_events" not in report and "sparsity" not in report


class TestGlobalSingletons:
    def test_disabled_by_default(self):
        assert obs.get_tracer().enabled is obs.get_metrics().enabled is False

    def test_enable_disable_round_trip(self, telemetry):
        with telemetry() as (tracer, metrics):
            assert obs.get_tracer() is tracer and obs.get_metrics() is metrics
            assert tracer.enabled and metrics.enabled
        assert obs.get_tracer().enabled is obs.get_metrics().enabled is False


#: Every record the program writes -> the file name it is written to.
RECORDS = {
    "report": "run.json",  # train --json
    "events": "events.jsonl",  # train --events
    "trace": "trace.jsonl",  # train --trace
    "loadgen": "loadgen.json",  # loadgen --out
    "results": "results.json",  # benchmarks/run_all.py --json
}


@pytest.fixture(scope="module")
def written(run_all, tmp_path_factory):
    """All five records, written once by the commands that write them:
    one ``train`` (report, events, trace), one ``loadgen`` against a
    tiny in-process service, one ``run_all`` of the ``tab3`` entry."""
    out = tmp_path_factory.mktemp("records")
    path = {name: str(out / file) for name, file in RECORDS.items()}
    assert main([
        "train", "products", "--scale", "0.02", "--epochs", "1",
        "--features", "8", "--hidden", "8", "--json", path["report"],
        "--events", path["events"], "--trace", path["trace"],
    ]) == 0
    graph = load_dataset("products", scale=0.02)
    service = InferenceService(
        graph, synthetic_features(graph, 8), build_model("gcn", 8, 8, 4))
    with ServingServer(service, port=0) as server:
        assert main(["loadgen", server.url, "--duration", "0.2",
                     "--vertices", "16", "--out", path["loadgen"]]) == 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(run_all, "PLAN", {"tab3": PLAN["tab3"]})
        patch.setattr(run_all.criteria, "CRITERIA", [])
        assert run_all.main([str(out / "out.md"), "--json", path["results"],
                             "--scale", "0.05"]) == 0
    return path


def _opening(path: str) -> tuple:
    """(the record's first key, its manifest): the header line's of a
    JSONL file, the document's of a JSON one."""
    with open(path) as handle:
        first = json.loads(handle.readline() if path.endswith(".jsonl")
                           else handle.read())
    if path.endswith(".jsonl"):
        first = {key: value for key, value in first.items() if key != "kind"}
    return next(iter(first)), first.get("manifest")


class TestRunRecord:
    """Every file the program writes opens with one manifest, built by
    ``obs.manifest``: the same keys everywhere, the same tree, Python,
    NumPy and BLAS build as this process reports."""

    @pytest.mark.parametrize("record", list(RECORDS))
    def test_opens_with_the_manifest(self, written, record):
        first, run = _opening(written[record])
        assert first == "manifest"
        here = manifest()
        assert set(run) == set(here)
        for key in ("schema", "git_sha", "python", "numpy", "blas"):
            assert run[key] == here[key], key
        assert run["blas"] and run["blas"]["name"]

    def test_one_run_one_manifest(self, written):
        """A run's files carry one manifest: the train's report, events
        and trace agree on every field, its arguments included."""
        report, events, trace = (
            _opening(written[name])[1] for name in ("report", "events", "trace"))
        assert report == events == trace
        assert (report["command"], report["config"]["dataset"]) == ("train", "products")
        assert "--events" in report["argv"]
