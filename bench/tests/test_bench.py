"""Tests of the benchmark itself, at tiny sizes.

Run with `PYTHONPATH=src python -m pytest bench/tests` from the
repository root.
"""

import dataclasses
import json
import os
import threading
import time
import unicodedata

import pytest

from seedforge import ablations
from seedforge.config import default_config
from seedforge.pipeline import MANIFEST_FILE, run_pipeline

from bench import checks, harness, inputs, tracing
from bench.workloads import Ablate, Build, Eval, Session, WORKLOADS

TINY = {
    "build": Build(size=60, cultural=6, general=4),
    "build-cached": Build(size=60, cultural=6, general=4, cached=True),
    "eval": Eval(pairs=21, vocabulary=300),
    "ablate": Ablate(size=50, cultural=4, general=3, corpus_rows=20),
}


@pytest.fixture(scope="module")
def spec():
    path = os.path.join(harness.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def quick_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)


def test_spec_names_the_harness_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert spec["paths"] == ["bench"]


@pytest.mark.parametrize("name", list(TINY))
def test_workload_runs_checks_and_emits_every_metric(name, spec,
                                                     quick_setup):
    workload = dataclasses.replace(TINY[name])
    result = harness.run(workload, seed=3, seconds=0, trace=True,
                         process_start=time.perf_counter(),
                         label=f"test-{name}")
    assert result["failures"] == []
    assert result["attempted"] >= 2
    plain = harness.result_line({**result, "trace": False}, spec)
    traced = harness.result_line(result, spec)
    for line, key in ((plain, "end_to_end"), (traced, "per_layer")):
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in spec[key]]
        assert set(result[key]) == set(line["metrics"])
    for metric, entry in plain["metrics"].items():
        assert entry["value"] > 0, metric
    layer = result["per_layer"]
    if name.startswith("build"):
        assert layer["pipeline.stages_run"] > 0
        assert layer["dedup.dedup_filter.calls"] > 0
        assert layer["evalreport.score_pair.calls"] == 0
    if name == "build":
        assert layer["pipeline.stages_skipped"] > 0
        assert layer["gateway.cache.get.calls"] == 0
    if name == "build":
        assert result["default_blas"]["dedup_s"] > 0
        assert "run.default_blas" in result["op_median_s"]
    else:
        assert result["default_blas"] is None
    if name == "build-cached":
        assert layer["gateway.cache.put.calls"] > 0
        assert layer["gateway.cache.bytes_written"] > 0
    if name == "eval":
        assert layer["evalreport.score_pair.calls"] == 42
        assert layer["metrics.bert_like_score.self_s"] > 0
        assert 0 < layer["eval.distinct_token_share"] < 1
        assert layer["pipeline.stages_run"] == 0
    if name == "ablate":
        assert all(layer[f"ablations.{v}_s"] > 0
                   for v in checks.VARIANT_FLAGS)
        assert layer["gateway.translate.provider_calls"] > 0
    assert os.path.exists(result["spans_file"])


def test_provider_counts_repeat_for_a_seed(quick_setup):
    counts = []
    for _ in range(2):
        result = harness.run(dataclasses.replace(TINY["build"]), seed=5,
                             seconds=0, trace=False,
                             process_start=time.perf_counter(),
                             label="test-repeat")
        e2e = result["end_to_end"]
        counts.append((e2e["provider_calls_per_item"],
                       e2e["request_chars_per_item"]))
    assert counts[0] == counts[1]


@pytest.fixture
def tiny_manifest(tmp_path):
    config = default_config(run_seed=2, dataset_size=60, topics_cultural=6,
                            topics_general=4, dedup_threshold=0.8)
    run_pipeline(config, str(tmp_path))
    return os.path.join(str(tmp_path), MANIFEST_FILE)


def test_dedup_check_catches_a_planted_near_duplicate(tiny_manifest):
    flags = checks.VARIANT_FLAGS["full"]
    assert checks.check_manifest(tiny_manifest, 60, flags, 0.8) == []
    manifest = ablations.read_manifest(tiny_manifest)
    first = manifest.records[0]
    planted = dataclasses.replace(
        manifest.records[-1], instruction=first.instruction,
        context=first.context, output=first.output + " extra")
    records = manifest.records[:-1] + (planted,)
    ablations.write_manifest(dataclasses.replace(manifest, records=records),
                             tiny_manifest)
    problems = checks.check_manifest(tiny_manifest, 60, flags, 0.8)
    assert any("cosine" in p for p in problems)


def test_manifest_check_catches_wrong_flags(tiny_manifest):
    problems = checks.check_manifest(tiny_manifest, 60,
                                     checks.VARIANT_FLAGS["culture"])
    assert any("flags" in p for p in problems)


@pytest.fixture
def tiny_report(tmp_path):
    workload = dataclasses.replace(TINY["eval"])
    workload.setup(4, str(tmp_path))
    session = Session()
    try:
        it = workload.iteration(session)
    finally:
        session.close()
    assert all(op.ok for op in it.ops)
    with open(os.path.join(str(tmp_path), "report.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def _check(report):
    return checks.check_report(report, ["system_a", "system_b"], 21,
                               better="system_a", worse="system_b")


def test_report_check_passes_the_real_report(tiny_report):
    assert _check(tiny_report) == []


def test_report_check_catches_an_out_of_range_score(tiny_report):
    per_pair = tiny_report["per_system"]["system_a"]["per_pair"]
    next(iter(per_pair.values()))["meteor"] = 1.5
    assert any("meteor" in p for p in _check(tiny_report))


def test_report_check_catches_a_missing_pair(tiny_report):
    per_pair = tiny_report["per_system"]["system_b"]["per_pair"]
    per_pair.pop(next(iter(per_pair)))
    assert any("scored pairs" in p for p in _check(tiny_report))


def test_report_check_catches_swapped_systems(tiny_report):
    per_system = tiny_report["per_system"]
    per_system["system_a"], per_system["system_b"] = (
        per_system["system_b"], per_system["system_a"])
    assert any("does not beat" in p for p in _check(tiny_report))


def test_failing_command_counts_as_failed(tmp_path):
    session = Session()
    try:
        op = session.cli("run", ["run", "--config", str(tmp_path / "none"),
                                 "--workdir", str(tmp_path / "work")])
    finally:
        session.close()
    assert not op.ok and op.error == "exit code 2"


def test_eval_inputs_depend_only_on_the_seed(tmp_path):
    blobs = []
    for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
        directory = tmp_path / sub
        directory.mkdir()
        files = inputs.eval_inputs(seed, 30, {"x": 0.2, "y": 0.6}, 200,
                                   str(directory))
        blobs.append([open(p, "rb").read() for p in
                      [files["references"], *files["predictions"].values()]])
    assert blobs[0] == blobs[1] and blobs[0] != blobs[2]
    text = blobs[0][0].decode("utf-8")
    assert any(unicodedata.category(ch) == "Mn" for ch in text)
    assert any("ก" <= ch <= "ฮ" for ch in text)


def test_external_corpus_depends_only_on_the_seed(tmp_path):
    paths = [str(tmp_path / name) for name in ("a", "b", "c")]
    for seed, path in zip((1, 1, 2), paths):
        inputs.external_corpus(seed, 10, path)
    blobs = [open(p, "rb").read() for p in paths]
    assert blobs[0] == blobs[1] != blobs[2]
    assert len(ablations.load_external_corpus(paths[0])) == 10


def test_pool_thread_spans_fall_back_to_the_open_home_span():
    tracer = tracing.Tracer()
    stage = tracer.open("pipeline.stage.contexts")
    inner = tracer.open("gateway.embed")
    tracer.close(inner)

    def worker():
        tracer.close(tracer.open("contexts.acquire_context"))

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.close(stage)
    spans = {s.name: s for s in tracer.take()}
    assert spans["gateway.embed"].parent == stage.id
    assert spans["contexts.acquire_context"].parent == stage.id


def test_self_time_subtracts_the_union_of_children():
    parent = tracing.Span(1, "p", 0.0, 0, None)
    parent.end = 10.0
    kids = []
    for i, (start, end) in enumerate(((1.0, 4.0), (3.0, 5.0), (8.0, 12.0))):
        kid = tracing.Span(i + 2, "c", start, 0, 1)
        kid.end = end
        kids.append(kid)
    assert tracing._covered(parent, kids) == pytest.approx(6.0)
