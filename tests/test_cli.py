"""Command-line behavior: exit codes, file flows, stage composition."""

import errno
import json
import os

import pytest

from seedforge.ablations import read_manifest
from seedforge.cli import main
from seedforge.errors import ValidationError
from seedforge.gateway.mock import MockTextGenerator
from seedforge.pipeline import build_gateway
from seedforge.records import file_sha256, read_records, write_atomic

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

        monkeypatch.setattr("seedforge.pipeline.generate_topics", boom)
        code = main(["run", "--config", conf,
                     "--workdir", str(tmp_path / "w")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error in stage topics-00" in err
        assert "rerun the same command to resume" in err

    def test_os_error_in_a_stage_names_the_stage(self, tmp_path, conf,
                                                 capsys, monkeypatch):
        def full_disk(path, blob):
            if os.path.basename(path) == "instructions-00.jsonl":
                raise OSError(errno.ENOSPC, "No space left on device", path)
            return write_atomic(path, blob)

        monkeypatch.setattr("seedforge.records.write_atomic", full_disk)
        code = main(["run", "--config", conf,
                     "--workdir", str(tmp_path / "w")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error in stage instructions-00" in err
        assert "No space left on device" in err
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

    def test_generate_repeated_task_exits_2(self, tmp_path, conf, capsys):
        topics = str(tmp_path / "topics.json")
        contexts = str(tmp_path / "contexts.jsonl")
        records = tmp_path / "records.jsonl"
        main(["topics", "--config", conf, "--general", "2",
              "--cultural", "0", "--out", topics])
        main(["contexts", "--config", conf, "--topics", topics,
              "--out", contexts])
        capsys.readouterr()
        code = main(["generate", "--config", conf, "--contexts", contexts,
                     "--tasks", "closed_qa,closed_qa", "--out",
                     str(records)])
        assert code == 2
        assert "repeated task" in capsys.readouterr().err
        assert not records.exists()


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

        monkeypatch.setattr("seedforge.pipeline.generate_topics", boom)
        code = main(["ablate", "--config", conf, "--variant", "full",
                     "--size", "50", "--out", str(tmp_path / "f.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error in stage topics-00" in err
        assert "resume" not in err

    def test_diversity_in_another_target_language(self, tmp_path):
        conf = tmp_path / "lo.conf"
        conf.write_text(CONF + "run.target_language = lo\n",
                        encoding="utf-8")
        out = str(tmp_path / "d.jsonl")
        assert main(["ablate", "--config", str(conf), "--variant",
                     "diversity", "--size", "50", "--out", out]) == 0
        records = read_manifest(out).records
        assert len(records) == 50
        assert all(r.language == "lo" for r in records)
        assert all("round_trip(en)" in r.lineage for r in records)

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

    @pytest.mark.parametrize("variant, given, unread", [
        ("full", ["--external"], "--external"),
        ("fluency", ["--external"], "--external"),
        ("diversity", ["--external"], "--external"),
        ("culture", ["--source", "--external"], "--external"),
        ("none", ["--source", "--external"], "--source")])
    def test_an_input_the_variant_does_not_read_exits_2(
            self, tmp_path, conf, capsys, variant, given, unread):
        out = tmp_path / "v.jsonl"
        argv = ["ablate", "--config", conf, "--variant", variant,
                "--size", "50", "--out", str(out)]
        for flag in given:
            argv += [flag, str(tmp_path / f"{flag[2:]}.jsonl")]
        assert main(argv) == 2
        assert f"--variant {variant} does not read {unread}" in (
            capsys.readouterr().err)
        assert not out.exists()

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


class TestOutputDirectory:
    """A command that writes a file finds a missing output directory
    before any provider call."""

    @pytest.fixture
    def provider_calls(self, monkeypatch):
        gateways = []

        def capture(config):
            gateways.append(build_gateway(config))
            return gateways[-1]

        monkeypatch.setattr("seedforge.cli.build_gateway", capture)
        return lambda: sum(n for g in gateways
                           for n in g.stats.snapshot()[
                               "provider_calls"].values())

    def test_topics(self, tmp_path, conf, capsys, provider_calls):
        code = main(["topics", "--config", conf,
                     "--out", str(tmp_path / "nodir" / "t.json")])
        assert code == 2
        assert (f"output directory {tmp_path / 'nodir'} does not exist"
                in capsys.readouterr().err)
        assert provider_calls() == 0

    def test_ablate_culture(self, tmp_path, conf, capsys, provider_calls):
        full = str(tmp_path / "full.jsonl")
        assert main(["ablate", "--config", conf, "--variant", "full",
                     "--size", "50", "--out", full]) == 0
        before = provider_calls()
        code = main(["ablate", "--config", conf, "--variant", "culture",
                     "--size", "50", "--source", full,
                     "--out", str(tmp_path / "nodir" / "c.jsonl")])
        assert code == 2
        assert "nodir does not exist" in capsys.readouterr().err
        assert provider_calls() == before

    def test_dedup_removals(self, tmp_path, conf, capsys):
        code = main(["dedup", "--config", conf,
                     "--in", str(tmp_path / "records.jsonl"),
                     "--out", str(tmp_path / "kept.jsonl"),
                     "--removals", str(tmp_path / "nodir" / "r.json")])
        assert code == 2
        assert "nodir does not exist" in capsys.readouterr().err


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


class TestBadInputFiles:
    """Undecodable or malformed input exits 1 with a message naming the
    file, not with a traceback."""

    def test_eval_refs_with_a_bad_byte(self, tmp_path, capsys):
        refs, rows = write_refs(tmp_path)
        with open(refs, "ab") as handle:
            handle.write(b'{"id": "\xff"}\n')
        preds = write_preds(tmp_path / "tuned.jsonl", rows)
        code = main(["eval", "--pred", preds, "--refs", refs,
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert f"{refs} line 7: not valid UTF-8" in capsys.readouterr().err

    def test_eval_refs_with_an_unknown_task(self, tmp_path, capsys):
        refs, rows = write_refs(tmp_path)
        poem = {"id": "p0", "task": "poetry", "test_set": "culture",
                "reference": "กลอน"}
        with open(refs, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(poem) + "\n")
        preds = write_preds(tmp_path / "tuned.jsonl", rows + [poem])
        code = main(["eval", "--pred", preds, "--refs", refs,
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert (f"{refs} line 7: unknown task 'poetry'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("bad", ["refs", "preds"])
    def test_eval_id_that_utf8_cannot_encode(self, tmp_path, capsys, bad):
        """JSON can escape a lone surrogate into an id, which the UTF-8
        report could not hold: the load fails, before any scoring. With
        bad == "refs", both files hold the id and would align."""
        refs, rows = write_refs(tmp_path)
        paths = {"refs": refs, "preds": str(tmp_path / "tuned.jsonl")}
        odd = [dict(r, id="a\ud800") if r["id"] == "oq1" else r
               for r in rows]
        for name, path in paths.items():
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(json.dumps(
                    {"id": r["id"], "prediction": r["reference"]}
                    if name == "preds" else r) + "\n"
                    for r in (odd if bad in ("refs", name) else rows))
        out = tmp_path / "r.json"
        code = main(["eval", "--pred", paths["preds"], "--refs", refs,
                     "--out", str(out)])
        assert code == 1
        assert (f"{paths[bad]} line 4: id 'a\\ud800' is not encodable as "
                f"UTF-8" in capsys.readouterr().err)
        assert not out.exists()

    def test_eval_system_name_that_utf8_cannot_encode(self, tmp_path,
                                                      capsys):
        """A file name that is not UTF-8 decodes to a lone surrogate, and
        the file name is the system name the report holds."""
        refs, rows = write_refs(tmp_path)
        preds = write_preds(tmp_path / "sys\udcff.jsonl", rows)
        out = tmp_path / "r.json"
        code = main(["eval", "--pred", preds, "--refs", refs,
                     "--out", str(out)])
        assert code == 2
        assert (f"prediction file {preds!r}: its name, the system name, is "
                f"not valid UTF-8" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("order", ["ab", "ba"])
    @pytest.mark.parametrize("gap", ["missing", "extra"])
    def test_eval_alignment_error_names_the_system_and_file(
            self, tmp_path, capsys, order, gap):
        """Only b.jsonl is out of line, whichever --pred comes first."""
        refs, rows = write_refs(tmp_path)
        if gap == "missing":
            bad = [r for r in rows if r["id"] != "cq1"]
            problem = "predictions missing for ids ['cq1']"
        else:
            bad = rows + [{"id": "zz", "reference": "x"}]
            problem = "predictions for unknown ids ['zz']"
        preds = {"a": write_preds(tmp_path / "a.jsonl", rows),
                 "b": write_preds(tmp_path / "b.jsonl", bad)}
        argv = ["eval", "--refs", refs, "--out", str(tmp_path / "r.json")]
        for name in order:
            argv += ["--pred", preds[name]]
        assert main(argv) == 1
        assert (f"error: {preds['b']}: system 'b': {problem}"
                in capsys.readouterr().err)

    def test_ablate_external_with_a_bad_byte(self, tmp_path, conf, capsys):
        corpus = tmp_path / "ext.jsonl"
        corpus.write_bytes(b'{"prompt": "q", "response": "a"}\n'
                           b'{"prompt": "\xff", "response": "a"}\n')
        code = main(["ablate", "--config", conf, "--variant", "none",
                     "--size", "5", "--external", str(corpus),
                     "--out", str(tmp_path / "n.jsonl")])
        assert code == 1
        assert f"{corpus} line 2: not valid UTF-8" in (
            capsys.readouterr().err)

    def test_report_on_truncated_json(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text('{"systems": ["a", ', encoding="utf-8")
        code = main(["report", "--in", str(report)])
        assert code == 1
        assert f"{report}: not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        '[{"text": "x"}]', '{"a": 1}',
        '[{"text": 5, "category": "general"}]'])
    def test_contexts_on_a_malformed_topics_file(self, tmp_path, conf,
                                                 capsys, content):
        topics = tmp_path / "t.json"
        topics.write_text(content, encoding="utf-8")
        code = main(["contexts", "--config", conf, "--topics", str(topics),
                     "--out", str(tmp_path / "c.jsonl")])
        assert code == 1
        assert f"{topics}: not a topics file" in capsys.readouterr().err

    def test_generate_on_a_context_row_without_a_key(self, tmp_path, conf,
                                                     capsys):
        contexts = tmp_path / "c.jsonl"
        contexts.write_text('{"a": 1}\n', encoding="utf-8")
        code = main(["generate", "--config", conf, "--contexts",
                     str(contexts), "--out", str(tmp_path / "r.jsonl")])
        assert code == 1
        assert (f"{contexts}: not a contexts file (KeyError: 'key')"
                in capsys.readouterr().err)

    def test_generate_on_a_context_whose_body_is_not_text(self, tmp_path,
                                                          conf, capsys):
        contexts = tmp_path / "c.jsonl"
        contexts.write_text(json.dumps(
            {"key": "t0000-r00", "body": 5,
             "source": {"kind": "wiki", "title": "T", "section": "",
                        "style": None},
             "topic": {"text": "x", "category": "general", "batch_id": 0},
             "provenance": {}}) + "\n", encoding="utf-8")
        code = main(["generate", "--config", conf, "--contexts",
                     str(contexts), "--out", str(tmp_path / "r.jsonl")])
        assert code == 1
        assert (f"{contexts}: not a contexts file (TypeError: context body "
                f"must be a string) at line 1" in capsys.readouterr().err)

    @pytest.mark.parametrize("source", [
        {"kind": "wiki", "title": 5, "section": []},
        {"kind": "generated", "title": ["x"], "section": None,
         "style": "poem"}])
    def test_generate_on_a_context_source_with_a_non_string_field(
            self, tmp_path, conf, capsys, source):
        contexts = tmp_path / "c.jsonl"
        row = {"key": "t0000-r00", "body": "b", "source": source,
               "topic": {"text": "x", "category": "general", "batch_id": 0}}
        contexts.write_text(json.dumps(row) + "\n", encoding="utf-8")
        code = main(["generate", "--config", conf, "--contexts",
                     str(contexts), "--out", str(tmp_path / "r.jsonl")])
        assert code == 1
        assert (f"{contexts}: not a contexts file (TypeError: source "
                f"title must be a string or null) at line 1"
                in capsys.readouterr().err)

    def test_generate_on_a_repeated_context_key(self, tmp_path, conf, capsys,
                                                monkeypatch):
        calls = []
        monkeypatch.setattr(MockTextGenerator, "complete",
                            lambda self, request: calls.append(request))
        source = {"kind": "generated", "style": "poem"}
        topic = {"text": "x", "category": "general", "batch_id": 0}
        contexts = tmp_path / "c.jsonl"
        contexts.write_text("".join(
            json.dumps({"key": "t0000-r00", "body": body, "source": source,
                        "topic": topic}) + "\n"
            for body in ("one", "two")), encoding="utf-8")
        code = main(["generate", "--config", conf, "--contexts",
                     str(contexts), "--out", str(tmp_path / "r.jsonl")])
        assert code == 1
        assert (f"{contexts}: not a contexts file (ValueError: repeated "
                f"context key 't0000-r00') at line 2"
                in capsys.readouterr().err)
        assert calls == []

    @pytest.mark.parametrize("field, message", [
        ("instruction", "record instruction must be a string"),
        ("topic", "topic text must be a string")])
    def test_dedup_on_a_record_with_a_number_for_text(
            self, tmp_path, conf, capsys, field, message):
        row = {"id": "t0000-r00-conversation-0", "task": "conversation",
               "instruction": "q", "context": None, "output": "a",
               "topic": {"text": "x", "category": "general", "batch_id": 0},
               "language": "th", "lineage": ["generated"], "flags": None,
               "provenance": {}}
        if field == "topic":
            row["topic"]["text"] = 5
        else:
            row[field] = 5
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(row) + "\n", encoding="utf-8")
        code = main(["dedup", "--config", conf, "--in", str(records),
                     "--out", str(tmp_path / "kept.jsonl"),
                     "--removals", str(tmp_path / "removals.json")])
        assert code == 1
        assert f"{records} line 1: {message}" in capsys.readouterr().err

    def test_ablate_source_whose_meta_has_no_recipe(self, tmp_path, conf,
                                                    capsys):
        source = tmp_path / "full.jsonl"
        source.write_text("", encoding="utf-8")
        meta = tmp_path / "full.jsonl.meta.json"
        meta.write_text(json.dumps({"records_sha256": "0" * 64,
                                    "target_size": 0, "seed": 0,
                                    "flags": {}}), encoding="utf-8")
        code = main(["ablate", "--config", conf, "--variant", "culture",
                     "--size", "5", "--source", str(source),
                     "--out", str(tmp_path / "c.jsonl")])
        assert code == 1
        assert (f"{meta}: not a manifest meta file (KeyError: 'recipe')"
                in capsys.readouterr().err)

    def test_report_on_an_object_that_is_not_a_report(self, tmp_path,
                                                     capsys):
        report = tmp_path / "report.json"
        report.write_text('{"a": 1}', encoding="utf-8")
        code = main(["report", "--in", str(report)])
        assert code == 1
        assert f"{report}: not an eval report" in capsys.readouterr().err
