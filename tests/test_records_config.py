"""Config parsing and record persistence.

The default table is asserted against literal values on purpose: the schema
reads from the constants module, so comparing against those constants would
test nothing.
"""

import json
from pathlib import Path

import pytest

from seedforge.config import (SCHEMA, PipelineConfig, default_config,
                              load_config, parse_config)
from seedforge.errors import ConfigError, ParseError, ValidationError
from seedforge.instructions import InstructionRecord
from seedforge.records import (file_sha256, read_ids, read_records,
                               record_from_dict, record_to_dict, write_jsonl,
                               write_records)
from seedforge.topics import CULTURAL, GENERAL, Topic

PINNED_DEFAULTS = {
    "run.seed": 0,
    "run.target_language": "th",
    "run.pivot_language": "en",
    "run.culture": "Thai",
    "dataset.size": 5000,
    "topics.cultural": 400,
    "topics.general": 300,
    "topics.per_batch": 20,
    "context.p_wiki": 0.5,
    "context.wiki_top_k": 10,
    "temperature.topics": 0.95,
    "temperature.closed_qa": 0.35,
    "temperature.summarization": 0.35,
    "temperature.conversation": 0.8,
    "temperature.multiple_choice": 0.4,
    "temperature.context": 0.8,
    "tasks.qa_pairs": 5,
    "dedup.threshold": 0.95,
    "paraphrase.count": 4,
    "budget.requests_per_minute": 60,
    "budget.max_concurrent": 4,
    "budget.retry_limit": 3,
    "cache.dir": "",
    "provider.kind": "mock",
    "provider.embed_dim": 256,
}


class TestDefaults:
    def test_pinned_default_values(self):
        effective = default_config().effective()
        for key, want in PINNED_DEFAULTS.items():
            assert effective[key] == want, key

    def test_empty_config_equals_defaults(self):
        assert parse_config("") == default_config()
        assert parse_config("\n# only a comment\n\n") == default_config()

    def test_effective_covers_every_key_in_order(self):
        effective = default_config().effective()
        assert list(effective)[:5] == [
            "run.seed", "run.target_language", "run.pivot_language",
            "run.culture", "dataset.size"]
        assert len(effective) == len(
            PipelineConfig.__dataclass_fields__)

    def test_readme_table_matches_the_schema(self):
        readme = Path(__file__).parents[1] / "README.md"
        lines = readme.read_text(encoding="utf-8").splitlines()
        start = lines.index("| key | default | meaning |") + 2
        table = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            key, default = (cell.strip() for cell in line.split("|")[1:3])
            table[key] = default
        assert list(table) == list(SCHEMA)
        for key, (default, _, _) in SCHEMA.items():
            if key == "cache.dir":
                want = "(off)"
            else:
                want = default if isinstance(default, str) else json.dumps(
                    default)
            assert table[key] == want, key

    def test_override_by_field_name(self):
        cfg = default_config(dataset_size=50, run_seed=42)
        assert cfg.dataset_size == 50
        assert cfg.run_seed == 42

    def test_override_validates(self):
        with pytest.raises(ConfigError):
            default_config(dataset_size=0)
        with pytest.raises(ConfigError):
            default_config(not_a_key=1)


class TestParseConfig:
    def test_values_comments_and_bare_words(self):
        cfg = parse_config("""
# run settings
run.seed = 7
dataset.size = 100
provider.kind = mock
run.culture = "Lao"
dedup.threshold = 0.9
context.p_wiki = 1
""")
        assert cfg.run_seed == 7
        assert cfg.dataset_size == 100
        assert cfg.run_culture == "Lao"
        assert cfg.dedup_threshold == 0.9
        assert cfg.context_p_wiki == 1.0

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2: unknown config key"):
            parse_config("run.seed = 1\nrun.sneed = 2\n")

    def test_duplicate_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 3: duplicate key"):
            parse_config("run.seed = 1\n\nrun.seed = 2\n")

    def test_threshold_range(self):
        with pytest.raises(ConfigError, match="line 1: dedup.threshold"):
            parse_config("dedup.threshold = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config("dedup.threshold = 0\n")
        assert parse_config("dedup.threshold = 1\n").dedup_threshold == 1.0

    def test_context_ranges(self):
        with pytest.raises(ConfigError, match="line 1: context.p_wiki"):
            parse_config("context.p_wiki = 1.5\n")
        with pytest.raises(ConfigError, match="line 1: context.wiki_top_k"):
            parse_config("context.wiki_top_k = 0\n")

    def test_types_enforced(self):
        with pytest.raises(ConfigError, match="expects int"):
            parse_config("dataset.size = 5.5\n")
        with pytest.raises(ConfigError, match="expects int"):
            parse_config("run.seed = true\n")

    def test_dedup_mode_is_an_unknown_key(self):
        # Keep-first is the only dedup policy and `run` always dedups;
        # the old keys are not aliased.
        for line in ("dedup.mode = keep_first", "dedup.mode = full_set",
                     "dedup.enabled = false"):
            with pytest.raises(ConfigError,
                               match="line 1: unknown config key"):
                parse_config(f"{line}\n")

    def test_choice_keys(self):
        with pytest.raises(ConfigError, match="provider.kind"):
            parse_config("provider.kind = carrier_pigeon\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="line 1: expected"):
            parse_config("run.seed 5\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="has no value"):
            parse_config("run.seed =\n")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.conf"))

    def test_load_non_utf8_file(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_bytes(b"run.seed = 1\n\xff\xfe\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(str(path))

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "ok.conf"
        path.write_text("run.seed = 9\n", encoding="utf-8")
        assert load_config(str(path)).run_seed == 9


class TestContentDigest:
    def test_operational_keys_excluded(self):
        base = default_config()
        tuned = default_config(budget_max_concurrent=32,
                               budget_requests_per_minute=600,
                               budget_retry_limit=0,
                               cache_dir="/somewhere/else")
        assert base.content_digest() == tuned.content_digest()

    def test_content_keys_included(self):
        base = default_config()
        for name, value in [("run_seed", 1), ("dataset_size", 10),
                            ("dedup_threshold", 0.9),
                            ("context_p_wiki", 0.25)]:
            changed = default_config(**{name: value})
            assert changed.content_digest() != base.content_digest(), name

    def test_digest_is_stable(self):
        assert default_config().content_digest() == (
            default_config().content_digest())


def sample_records():
    return [
        InstructionRecord(
            id="t0000-r00-closed_qa-00", task="closed_qa",
            instruction="วัดอรุณอยู่ที่ไหน?", context="วัดอรุณ ... แม่น้ำ",
            output="ริมแม่น้ำเจ้าพระยา", topic=Topic("วัดอรุณ", CULTURAL),
            language="th", lineage=("generated",),
            provenance={"temperature": 0.35, "nested": {"a": [1, 2]}},
            flags={"fluency": True, "culture": True, "diversity": True}),
        InstructionRecord(
            id="t0001-r00-conversation-00", task="conversation",
            instruction="ชอบกินอะไร", context=None, output="ผัดไทย",
            topic=Topic("อาหาร", GENERAL, batch_id=3), language="th",
            lineage=("generated", "round_trip(en)"), provenance={}),
    ]


class TestRecordDicts:
    def test_round_trip_field_for_field(self):
        for rec in sample_records():
            clone = record_from_dict(record_to_dict(rec))
            assert clone == rec

    def test_flags_keys_enforced_on_write(self):
        rec = sample_records()[0]
        bad = InstructionRecord(
            **{**rec.__dict__, "flags": {"fluency": True}})
        with pytest.raises(ValidationError, match="flags"):
            record_to_dict(bad)

    def test_where_prefix_in_errors(self):
        data = record_to_dict(sample_records()[0])
        del data["output"]
        with pytest.raises(ParseError, match="line 7: missing keys"):
            record_from_dict(data, where="line 7")

    def test_nested_shapes_validated(self):
        base = record_to_dict(sample_records()[0])
        for key, bad in [("topic", "not a dict"),
                         ("lineage", "generated"),
                         ("lineage", [1, 2]),
                         ("flags", "yes"),
                         ("provenance", [1])]:
            data = dict(base)
            data[key] = bad
            with pytest.raises((ParseError, ValidationError)):
                record_from_dict(data)

    def test_semantic_validation_still_applies(self):
        data = record_to_dict(sample_records()[0])
        data["context"] = None  # closed_qa requires a context
        with pytest.raises(ValidationError):
            record_from_dict(data)


class TestRecordFiles:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        records = sample_records()
        digest = write_records(records, path)
        assert read_records(path) == records
        assert file_sha256(path) == digest

    def test_rows_are_the_compact_json_dumps_form(self, tmp_path):
        rows = [record_to_dict(r) for r in sample_records()]
        rows += [{"z": 1, "a": ["𝔘", "ไทย", "\n\"\\"]}, {}, {"x": None}]
        path = str(tmp_path / "rows.jsonl")
        write_jsonl(path, rows)
        want = "".join(json.dumps(row, ensure_ascii=False,
                                  separators=(",", ":")) + "\n"
                       for row in rows)
        assert Path(path).read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_chunks_do_not_move_a_byte(self, tmp_path, monkeypatch, chunk):
        whole = str(tmp_path / "whole.jsonl")
        write_records(sample_records(), whole)
        monkeypatch.setattr("seedforge.records.CHUNK_ROWS", chunk)
        path = str(tmp_path / "chunked.jsonl")
        assert write_records(sample_records(), path) == file_sha256(whole)
        assert Path(path).read_bytes() == Path(whole).read_bytes()

    def test_a_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        # The repeated id comes after a first chunk was written.
        monkeypatch.setattr("seedforge.records.CHUNK_ROWS", 2)
        rows = sample_records()
        with pytest.raises(ValidationError, match="duplicate record id"):
            write_records(rows[:2] + rows[:1], str(tmp_path / "dup.jsonl"))
        assert list(tmp_path.iterdir()) == []

    def test_ids_are_read_from_the_start_of_each_line(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        rows = sample_records()
        write_records(rows, path)
        assert read_ids(path) == [r.id for r in rows]
        with open(path, "ab") as handle:
            handle.write(b'\n{"task": "x", "id": "late"}\n')
        with pytest.raises(ParseError, match=f"line {len(rows) + 2}"):
            read_ids(path)

    def test_byte_stable_rewrites(self, tmp_path):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        write_records(sample_records(), a)
        write_records(sample_records(), b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_empty_list_and_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        write_records([], path)
        assert read_records(path) == []

    def test_duplicate_id_on_write(self, tmp_path):
        rec = sample_records()[0]
        with pytest.raises(ValidationError, match="duplicate record id"):
            write_records([rec, rec], str(tmp_path / "dup.jsonl"))

    def test_duplicate_id_on_read(self, tmp_path):
        path = str(tmp_path / "dup.jsonl")
        write_records(sample_records(), path)
        with open(path, "rb") as handle:
            lines = handle.read().splitlines()
        with open(path, "wb") as handle:
            handle.write(b"\n".join([lines[0], lines[0]]) + b"\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_records(path)

    def test_malformed_json_line_number(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        write_records(sample_records()[:1], path)
        with open(path, "ab") as handle:
            handle.write(b"{not json\n")
        with pytest.raises(ParseError, match="line 2"):
            read_records(path)

    def test_non_utf8_line_number(self, tmp_path):
        path = str(tmp_path / "bytes.jsonl")
        write_records(sample_records()[:1], path)
        with open(path, "ab") as handle:
            handle.write(b'{"id": "\xff"}\n')
        with pytest.raises(ParseError, match="line 2: not valid UTF-8"):
            read_records(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = str(tmp_path / "gaps.jsonl")
        write_records(sample_records(), path)
        with open(path, "rb") as handle:
            body = handle.read()
        with open(path, "wb") as handle:
            handle.write(b"\n" + body + b"\n\n")
        assert read_records(path) == sample_records()
