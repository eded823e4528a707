"""Command-line behavior: exit codes, file flows, stage composition."""

import json
import os

import pytest

from seedforge.ablations import read_manifest
from seedforge.cli import main
from seedforge.errors import ValidationError
from seedforge.records import file_sha256, read_records

CONF = """\
run.seed = 42
topics.cultural = 8
topics.general = 6
dataset.size = 50
"""


@pytest.fixture
def conf(tmp_path):
    path = tmp_path / "small.conf"
    path.write_text(CONF, encoding="utf-8")
    return str(path)


def write_refs(tmp_path):
    rows = []
    for i in range(3):
        rows.append({"id": f"cq{i}", "task": "closed_qa",
                     "test_set": "culture",
                     "reference": f"คำตอบ อ้างอิง หมายเลข {i}"})
        rows.append({"id": f"oq{i}", "task": "open_qa",
                     "test_set": "general",
                     "reference": f"ข้อความ อ้างอิง ชุด {i}"})
    path = tmp_path / "refs.jsonl"
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n"
                            for r in rows), encoding="utf-8")
    return str(path), rows


def write_preds(path, rows, mangle=None):
    out = []
    for row in rows:
        text = row["reference"] if mangle is None else mangle(row)
        out.append({"id": row["id"], "prediction": text})
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n"
                            for r in out), encoding="utf-8")
    return str(path)


class TestRun:
    def test_run_prints_size_and_hash(self, tmp_path, conf, capsys):
        workdir = str(tmp_path / "work")
        assert main(["run", "--config", conf, "--workdir", workdir]) == 0
        out = capsys.readouterr().out
        assert f"50 records -> {os.path.join(workdir, 'manifest.jsonl')}" \
            in out
        first_hash = out.split("sha256 ")[1].strip()
        assert main(["run", "--config", conf, "--workdir", workdir]) == 0
        out = capsys.readouterr().out
        assert out.split("sha256 ")[1].strip() == first_hash

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_text("dataset.size = -1\n", encoding="utf-8")
        code = main(["run", "--config", str(path),
                     "--workdir", str(tmp_path / "w")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.conf"),
                     "--workdir", str(tmp_path / "w")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_stage_error_suggests_resume(self, tmp_path, conf, capsys,
                                         monkeypatch):
        def boom(*args, **kwargs):
            raise ValidationError("topic generator speaks in riddles")

        monkeypatch.setattr("seedforge.pipeline.build_topic_set", boom)
        code = main(["run", "--config", conf,
                     "--workdir", str(tmp_path / "w")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error in stage topics-00" in err
        assert "rerun the same command to resume" in err


class TestStageChain:
    def test_topics_contexts_generate_dedup(self, tmp_path, conf, capsys):
        topics = str(tmp_path / "topics.json")
        contexts = str(tmp_path / "contexts.jsonl")
        records = str(tmp_path / "records.jsonl")
        kept = str(tmp_path / "kept.jsonl")
        removals = str(tmp_path / "removals.json")

        assert main(["topics", "--config", conf, "--general", "2",
                     "--cultural", "2", "--out", topics]) == 0
        with open(topics, encoding="utf-8") as handle:
            topic_rows = json.load(handle)
        assert len(topic_rows) == 4
        categories = {row["category"] for row in topic_rows}
        assert categories == {"cultural", "general"}

        assert main(["contexts", "--config", conf, "--topics", topics,
                     "--out", contexts]) == 0
        with open(contexts, encoding="utf-8") as handle:
            ctx_rows = [json.loads(line) for line in handle if line.strip()]
        assert len(ctx_rows) == 4
        assert all(row["key"].startswith("t") and row["body"]
                   for row in ctx_rows)

        assert main(["generate", "--config", conf, "--contexts", contexts,
                     "--out", records]) == 0
        recs = read_records(records)
        assert len(recs) == 32
        assert {r.task for r in recs} == {
            "closed_qa", "summarization", "conversation", "multiple_choice"}

        assert main(["dedup", "--config", conf, "--in", records,
                     "--out", kept, "--removals", removals]) == 0
        out = capsys.readouterr().out
        survivors = read_records(kept)
        with open(removals, encoding="utf-8") as handle:
            removed = json.load(handle)
        assert len(survivors) + len(removed) == 32
        assert f"{len(survivors)} kept, {len(removed)} removed" in out

    def test_stage_commands_write_the_run_files(self, tmp_path, conf):
        workdir = str(tmp_path / "work")
        assert main(["run", "--config", conf, "--workdir", workdir]) == 0
        topics = str(tmp_path / "topics.json")
        contexts = str(tmp_path / "contexts.jsonl")
        records = str(tmp_path / "records.jsonl")
        assert main(["topics", "--config", conf, "--out", topics]) == 0
        assert main(["contexts", "--config", conf, "--topics", topics,
                     "--out", contexts]) == 0
        assert main(["generate", "--config", conf, "--contexts", contexts,
                     "--out", records]) == 0
        for mine, theirs in ((topics, "topics-00.json"),
                             (contexts, "contexts-00.jsonl"),
                             (records, "instructions-00.jsonl")):
            assert file_sha256(mine) == file_sha256(
                os.path.join(workdir, theirs)), theirs

    def test_out_of_range_p_wiki_exits_2(self, tmp_path, conf, capsys):
        topics = str(tmp_path / "topics.json")
        assert main(["topics", "--config", conf, "--general", "1",
                     "--cultural", "0", "--out", topics]) == 0
        code = main(["contexts", "--config", conf, "--topics", topics,
                     "--p-wiki", "7", "--out", str(tmp_path / "c.jsonl")])
        assert code == 2
        assert "context.p_wiki" in capsys.readouterr().err

    def test_generate_task_subset(self, tmp_path, conf):
        topics = str(tmp_path / "topics.json")
        contexts = str(tmp_path / "contexts.jsonl")
        records = str(tmp_path / "records.jsonl")
        main(["topics", "--config", conf, "--general", "2",
              "--cultural", "0", "--out", topics])
        main(["contexts", "--config", conf, "--topics", topics,
              "--out", contexts])
        assert main(["generate", "--config", conf, "--contexts", contexts,
                     "--tasks", "closed_qa", "--out", records]) == 0
        recs = read_records(records)
        assert len(recs) == 10
        assert all(r.task == "closed_qa" for r in recs)

    def test_generate_unknown_task_exits_2(self, tmp_path, conf, capsys):
        contexts = tmp_path / "contexts.jsonl"
        contexts.write_text("", encoding="utf-8")
        code = main(["generate", "--config", conf,
                     "--contexts", str(contexts),
                     "--tasks", "haiku", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown tasks: haiku" in capsys.readouterr().err


class TestAblate:
    def test_full_then_culture(self, tmp_path, conf):
        full_path = str(tmp_path / "full.jsonl")
        culture_path = str(tmp_path / "culture.jsonl")
        assert main(["ablate", "--config", conf, "--variant", "full",
                     "--size", "50", "--out", full_path]) == 0
        full = read_manifest(full_path)
        assert len(full.records) == 50
        assert main(["ablate", "--config", conf, "--variant", "culture",
                     "--size", "50", "--source", full_path,
                     "--out", culture_path]) == 0
        culture = read_manifest(culture_path)
        assert len(culture.records) == 50
        assert (culture.flags.fluency, culture.flags.culture,
                culture.flags.diversity) == (False, True, False)

    def test_meta_echoes_the_overridden_size(self, tmp_path):
        conf = tmp_path / "big.conf"
        conf.write_text(CONF.replace("dataset.size = 50",
                                     "dataset.size = 1000"),
                        encoding="utf-8")
        out = str(tmp_path / "full.jsonl")
        assert main(["ablate", "--config", str(conf), "--variant", "full",
                     "--size", "50", "--out", out]) == 0
        with open(out + ".meta.json", encoding="utf-8") as handle:
            meta = json.load(handle)
        assert meta["target_size"] == 50
        assert meta["config"]["dataset.size"] == 50

    @pytest.mark.parametrize("variant", ["full", "fluency", "diversity"])
    def test_generated_variant_leaves_only_its_outputs(self, tmp_path, conf,
                                                       variant):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = str(out_dir / "v.jsonl")
        assert main(["ablate", "--config", conf, "--variant", variant,
                     "--size", "50", "--out", out]) == 0
        assert sorted(os.listdir(out_dir)) == ["v.jsonl", "v.jsonl.meta.json"]

    def test_stage_error_offers_no_resume(self, tmp_path, conf, capsys,
                                          monkeypatch):
        def boom(*args, **kwargs):
            raise ValidationError("topic generator speaks in riddles")

        monkeypatch.setattr("seedforge.pipeline.build_topic_set", boom)
        code = main(["ablate", "--config", conf, "--variant", "full",
                     "--size", "50", "--out", str(tmp_path / "f.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error in stage topics-00" in err
        assert "resume" not in err

    def test_culture_without_source_exits_2(self, tmp_path, conf, capsys):
        code = main(["ablate", "--config", conf, "--variant", "culture",
                     "--size", "50", "--out", str(tmp_path / "c.jsonl")])
        assert code == 2
        assert "requires --source" in capsys.readouterr().err

    def test_none_without_external_exits_2(self, tmp_path, conf, capsys):
        code = main(["ablate", "--config", conf, "--variant", "none",
                     "--size", "50", "--out", str(tmp_path / "n.jsonl")])
        assert code == 2
        assert "requires --external" in capsys.readouterr().err

    def test_none_with_external(self, tmp_path, conf):
        corpus = tmp_path / "ext.jsonl"
        rows = "\n".join(
            f'{{"prompt": "q{i}", "response": "a{i}"}}' for i in range(12))
        corpus.write_text(rows + "\n", encoding="utf-8")
        out = str(tmp_path / "none.jsonl")
        assert main(["ablate", "--config", conf, "--variant", "none",
                     "--size", "50", "--external", str(corpus),
                     "--out", out]) == 0
        manifest = read_manifest(out)
        assert len(manifest.records) == 50
        assert manifest.flags == type(manifest.flags)(False, False, False)

    def test_size_not_multiple_of_fanout_exits_2(self, tmp_path, conf,
                                                 capsys):
        full_path = str(tmp_path / "full.jsonl")
        main(["ablate", "--config", conf, "--variant", "full",
              "--size", "50", "--out", full_path])
        code = main(["ablate", "--config", conf, "--variant", "culture",
                     "--size", "52", "--source", full_path,
                     "--out", str(tmp_path / "c.jsonl")])
        assert code == 2
        assert "fan-out" in capsys.readouterr().err

    def test_oversized_sample_exits_4(self, tmp_path, conf, capsys):
        full_path = str(tmp_path / "full.jsonl")
        main(["ablate", "--config", conf, "--variant", "full",
              "--size", "50", "--out", full_path])
        code = main(["ablate", "--config", conf, "--variant", "culture",
                     "--size", "500", "--source", full_path,
                     "--out", str(tmp_path / "c.jsonl")])
        assert code == 4
        err = capsys.readouterr().err
        assert "build error" in err
        assert "achieved 50 records" in err


class TestEvalReport:
    def test_eval_then_report_round_trip(self, tmp_path, capsys):
        refs, rows = write_refs(tmp_path)
        tuned = write_preds(tmp_path / "tuned.jsonl", rows)
        base = write_preds(tmp_path / "base.jsonl", rows,
                           mangle=lambda r: f"เดา {r['id']} ไป เรื่อย")
        report_json = str(tmp_path / "report.json")
        assert main(["eval", "--pred", tuned, "--pred", base,
                     "--refs", refs, "--out", report_json]) == 0
        with open(report_json, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["systems"] == ["tuned", "base"]
        assert report["per_system"]["tuned"]["overall"]["rouge1_f1"] == 1.0

        assert main(["report", "--in", report_json]) == 0
        out = capsys.readouterr().out
        assert "[culture test set]" in out
        assert "tuned" in out and "base" in out

        rendered = str(tmp_path / "report.txt")
        assert main(["report", "--in", report_json,
                     "--out", rendered]) == 0
        with open(rendered, encoding="utf-8") as handle:
            assert "[all test sets]" in handle.read()

    def test_duplicate_system_names_exit_2(self, tmp_path, capsys):
        refs, rows = write_refs(tmp_path)
        os.makedirs(tmp_path / "a")
        os.makedirs(tmp_path / "b")
        p1 = write_preds(tmp_path / "a" / "preds.jsonl", rows)
        p2 = write_preds(tmp_path / "b" / "preds.jsonl", rows)
        code = main(["eval", "--pred", p1, "--pred", p2, "--refs", refs,
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "duplicate system name" in capsys.readouterr().err

    def test_misaligned_predictions_exit_1(self, tmp_path, capsys):
        refs, rows = write_refs(tmp_path)
        short = write_preds(tmp_path / "short.jsonl", rows[:-1])
        code = main(["eval", "--pred", short, "--refs", refs,
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "missing" in capsys.readouterr().err

    def test_report_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["report", "--in", str(tmp_path / "ghost.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err
