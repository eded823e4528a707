"""Pinned sha256 digests of mock builds and of a mock eval report.

Refactors must leave the bytes of `run`'s manifest, of every `ablate`
variant and of the report `eval` writes unchanged, and each variant's
provider calls per op with them. The config forces the
interesting paths at a small size: 9 topics fall short of 100 records, so
`run` and `ablate full` run an extension epoch and `ablate fluency`
re-rolls its 10 topics; a dedup threshold of 0.8 makes dedup remove
records. If a digest must change, the change that moves it says why.
"""

import hashlib
import json
import math
import os
import random
import sys

import pytest

from seedforge import cli, constants, records
from seedforge.cli import main
from seedforge.config import load_config
from seedforge.errors import ProviderError
from seedforge.evalreport import EVAL_TASKS, TEST_SETS
from seedforge.gateway.mock import MockEmbedder
from seedforge.pipeline import (CHECKPOINT_FILE, MANIFEST_FILE,
                                build_gateway, run_pipeline)
from seedforge.records import file_sha256, read_json, read_records

CONF = """\
run.seed = 42
topics.cultural = 5
topics.general = 4
dataset.size = 100
dedup.threshold = 0.8
"""

RUN_MANIFEST = (
    "d0c929e79d180930d546d92bc35ce8798879ee80baab61e48fd72de44888966e")
# The metadata echoes every config key. It moved when the
# `dedup.index_kind` key was removed, again when the `dedup.mode` key was
# removed, and a third time when the `dedup.enabled` key was removed; the
# records digest did not.
RUN_META = (
    "a7754009255cb17ffd61d1547fc61141d5abae623dc03ee1651b02ab66830a78")
# The stages a cold `run` executes, in order, and the sha256 of the
# ledger it leaves. A workdir written by an earlier layout reruns with zero
# stages only while both hold. The ledger hashes removed-NN.json, so it
# moved (from f45a2b20...) when removal similarities began to come from
# dedup's own float64 formula instead of a BLAS tile: 15 of the 18 moved,
# by at most 1.1e-15, and RUN_DECISIONS held.
RUN_STAGES = [f"{kind}-{epoch:02d}" for epoch in range(3)
              for kind in ("topics", "contexts", "instructions", "dedup")
              ] + ["manifest"]
RUN_LEDGER = (
    "a2ca29b5805f7684a94af034d8540ba3a68581df1202fb7100697cdb9824939a")
# The (record_id, nearest_id) pairs of the cold `run`'s removals files,
# without their similarities.
RUN_DECISIONS = (
    "fa460bfbeb31405008f240a7b3f06f827ae1c487e6702a5a7db552b568ab7a51")
ABLATE = {
    "full":
        "d0c929e79d180930d546d92bc35ce8798879ee80baab61e48fd72de44888966e",
    "fluency":
        "926ab0c127caac202b7189521abebec45f1d69222d7bd3add90c7afdf5b1d59d",
    # Moved when the row's 750 topics began to scale with the size: 15
    # topics at 100 records. test_diversity_at_the_reference_size_is_unmoved
    # pins the old bytes.
    "diversity":
        "209233e90ef1811472dd29365c7b6747c32835212b8957a61ae92f801cf99cb6",
    "culture":
        "7af655f4aa31a7e12f34923a72c923a14689423840e0d603dbca2aaa83e2f49d",
    "none":
        "849cab40b0bd9759687147c3c7683d29c6681dd0dbfd36555cc76d60265aed71",
}
# The sha256 of each variant's `.meta.json`. `full`'s equals RUN_META.
ABLATE_META = {
    "full":
        "a7754009255cb17ffd61d1547fc61141d5abae623dc03ee1651b02ab66830a78",
    "fluency":
        "8772405e5d40acaf2cacecbcbf06c4bcaccadd63710c006bbf2e36601e7801f7",
    "diversity":
        "7dbfc16e42b111c2053c81998d26a948ed83bfed090efaedde1a4a92cc93a266",
    "culture":
        "1bcee90d29a0cbee6515e93b2333b601a18b54ea2d8b7d6580e0f4f215ef0a4d",
    "none":
        "dfd07121a8d1419d974dfc31f9b0617e27bb6530621346cbc68bad76bd3479f4",
}
# `diversity` before its topics scaled with the size.
DIVERSITY_AT_REFERENCE_SIZE = (
    "7e59f337d38c7f312af815a607f11c8a553de3b84c3a25fbc9925f60413ce1e8")
# Provider calls per op of each variant's build, from the gateway that
# `build_gateway` makes for it. A change that multiplies requests fails
# here. `diversity` made 4,813 calls (3,415 `complete`) with 750 topics.
# Translate and paraphrase requests carry up to 64 texts each; sent one
# text at a time they were `diversity` translate 410, `culture` translate
# 306 and paraphrase 51, `none` translate 200 and paraphrase 40.
ABLATE_CALLS = {
    "full": {"complete": 70, "embed": 4, "wiki_search": 5,
             "wiki_sections": 5},
    "fluency": {"complete": 93, "wiki_search": 8, "wiki_sections": 8},
    "diversity": {"complete": 72, "embed": 2, "translate": 8,
                  "wiki_search": 5, "wiki_sections": 4},
    "culture": {"paraphrase": 1, "translate": 5},
    "none": {"paraphrase": 1, "translate": 4},
}


def ablate_argv(conf, variant: str, out: str, size: int = 100) -> list[str]:
    return ["ablate", "--config", str(conf), "--variant", variant,
            "--size", str(size), "--out", out]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """The `run` manifest, each variant's output file and each variant's
    provider calls per op."""
    root = tmp_path_factory.mktemp("pins")
    conf = root / "pins.conf"
    conf.write_text(CONF, encoding="utf-8")
    corpus = root / "external.jsonl"
    corpus.write_text("".join(
        json.dumps({"prompt": f"question {i}", "response": f"answer {i}"})
        + "\n" for i in range(30)), encoding="utf-8")
    workdir = str(root / "run")
    assert main(["run", "--config", str(conf), "--workdir", workdir]) == 0
    out, calls = {}, {}
    gateways = []

    def capture(config):
        gateways.append(build_gateway(config))
        return gateways[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("seedforge.cli.build_gateway", capture)
        patch.setattr("seedforge.pipeline.build_gateway", capture)
        for variant in ABLATE:
            out[variant] = str(root / f"{variant}.jsonl")
            argv = ablate_argv(conf, variant, out[variant])
            if variant == "culture":
                argv += ["--source", out["full"]]
            elif variant == "none":
                argv += ["--external", str(corpus)]
            assert main(argv) == 0
            calls[variant] = dict(gateways.pop().stats.provider_calls)
    return os.path.join(workdir, MANIFEST_FILE), out, calls


def test_builds_take_the_paths_they_pin(built):
    manifest, out, _ = built
    with open(os.path.join(os.path.dirname(manifest), CHECKPOINT_FILE),
              encoding="utf-8") as handle:
        assert "topics-01" in json.load(handle)
    rounds = {r.id.split("-")[1] for r in read_records(out["fluency"])}
    assert len(rounds) > 1


def test_run_manifest_and_meta(built):
    manifest, _, _ = built
    assert file_sha256(manifest) == RUN_MANIFEST
    assert file_sha256(manifest + ".meta.json") == RUN_META


def test_noop_run_answers_from_its_ledger(tmp_path, monkeypatch, capsys):
    """A rerun of a finished workdir prints the cold run's lines, with the
    digest from the ledger, and parses no manifest."""
    conf = tmp_path / "pins.conf"
    conf.write_text(CONF, encoding="utf-8")
    argv = ["run", "--config", str(conf), "--workdir", str(tmp_path / "w")]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    parsed = []

    def counting(read):
        def read_manifest(path):
            parsed.append(path)
            return read(path)
        return read_manifest

    for module in list(sys.modules.values()):
        original = getattr(module, "read_manifest", None)
        if module.__name__.startswith("seedforge") and original:
            monkeypatch.setattr(module, "read_manifest", counting(original))
    assert main(argv) == 0
    assert parsed == []
    assert capsys.readouterr().out == cold
    assert cold.splitlines()[1] == f"sha256 {RUN_MANIFEST}"


def test_run_ledger_and_stage_order(tmp_path):
    conf = tmp_path / "pins.conf"
    conf.write_text(CONF, encoding="utf-8")
    workdir = str(tmp_path / "w")
    executed = []
    run_pipeline(load_config(str(conf)), workdir, stage_hook=executed.append)
    assert executed == RUN_STAGES
    assert file_sha256(os.path.join(workdir, CHECKPOINT_FILE)) == RUN_LEDGER


def test_run_dedup_decisions(tmp_path):
    """The (record_id, nearest_id) pairs of every removed-NN.json. The
    ledger hashes the removal similarities too; this pin holds the
    decisions alone."""
    conf = tmp_path / "pins.conf"
    conf.write_text(CONF, encoding="utf-8")
    workdir = tmp_path / "w"
    run_pipeline(load_config(str(conf)), str(workdir))
    pairs = {path.name: [[row["record_id"], row["nearest_id"]]
                         for row in read_json(str(path))]
             for path in sorted(workdir.glob("removed-*.json"))}
    assert [len(rows) for rows in pairs.values()] == [4, 7, 7]
    blob = json.dumps(pairs, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == RUN_DECISIONS


@pytest.mark.parametrize("stop", RUN_STAGES[4:8])
def test_resume_inside_an_extension_epoch(tmp_path, stop):
    """A run stopped before any stage of epoch 1 resumes there: the stages
    that run read the skipped stages' values, including the earlier topic
    sets, from their files."""
    conf = tmp_path / "pins.conf"
    conf.write_text(CONF, encoding="utf-8")
    config = load_config(str(conf))
    workdir = str(tmp_path / "w")

    class Interrupt(Exception):
        pass

    def bomb(stage):
        if stage == stop:
            raise Interrupt(stage)

    with pytest.raises(Interrupt):
        run_pipeline(config, workdir, stage_hook=bomb)
    executed = []
    run_pipeline(config, workdir, stage_hook=executed.append)
    assert executed == RUN_STAGES[RUN_STAGES.index(stop):]
    assert file_sha256(os.path.join(workdir, MANIFEST_FILE)) == RUN_MANIFEST
    assert file_sha256(os.path.join(workdir, CHECKPOINT_FILE)) == RUN_LEDGER


def test_skipped_stages_load_only_when_read(tmp_path, monkeypatch):
    """A no-op rerun parses no JSONL stage file. With the manifest gone,
    a rerun runs only the manifest stage, which reads the pool from the
    skipped stages' files, and writes the same bytes."""
    conf = tmp_path / "pins.conf"
    conf.write_text(CONF, encoding="utf-8")
    config = load_config(str(conf))
    workdir = str(tmp_path / "w")
    run_pipeline(config, workdir)
    parsed = []

    def counting(read):
        def read_jsonl_lines(path):
            parsed.append(os.path.basename(path))
            return read(path)
        return read_jsonl_lines

    for module in list(sys.modules.values()):
        original = getattr(module, "read_jsonl_lines", None)
        if module.__name__.startswith("seedforge") and original:
            monkeypatch.setattr(module, "read_jsonl_lines",
                                counting(original))
    executed = []
    run_pipeline(config, workdir, stage_hook=executed.append)
    assert (executed, parsed) == ([], [])
    os.remove(os.path.join(workdir, MANIFEST_FILE))
    run_pipeline(config, workdir, stage_hook=executed.append)
    assert executed == ["manifest"]
    assert sorted(set(parsed)) == [f"instructions-{epoch:02d}.jsonl"
                                   for epoch in range(3)]
    assert file_sha256(os.path.join(workdir, MANIFEST_FILE)) == RUN_MANIFEST


def test_a_crash_inside_the_dedup_spool(tmp_path, monkeypatch):
    """The embedder fails on its third batch of dedup-00, after two
    batches went to the spool: the stage gets no ledger entry. The rerun
    spools anew and writes the pinned bytes; it never reads the stale
    spool, which is scrambled here to show it."""
    conf = tmp_path / "pins.conf"
    conf.write_text(CONF, encoding="utf-8")
    config = load_config(str(conf))
    workdir = str(tmp_path / "w")
    monkeypatch.setattr(MockEmbedder, "batch_size", 16)
    batches = []
    embed_batch = MockEmbedder.embed_batch

    def third_fails(self, texts):
        batches.append(texts)
        if len(batches) == 3:
            raise ProviderError("the embedder went away")
        return embed_batch(self, texts)

    monkeypatch.setattr(MockEmbedder, "embed_batch", third_fails)
    with pytest.raises(ProviderError):
        run_pipeline(config, workdir)
    ledger = read_json(os.path.join(workdir, CHECKPOINT_FILE))
    assert "instructions-00" in ledger and "dedup-00" not in ledger
    spool = os.path.join(workdir, "vectors-00.npy.spool")
    # The header, then the two batches that arrived.
    assert os.path.getsize(spool) == 128 + 2 * 16 * 256 * 8
    with open(spool, "r+b") as handle:
        handle.write(os.urandom(os.path.getsize(spool)))
    monkeypatch.setattr(MockEmbedder, "embed_batch", embed_batch)
    executed = []
    run_pipeline(config, workdir, stage_hook=executed.append)
    assert executed == RUN_STAGES[3:]
    assert not os.path.exists(spool)
    assert file_sha256(os.path.join(workdir, MANIFEST_FILE)) == RUN_MANIFEST
    assert file_sha256(os.path.join(workdir, CHECKPOINT_FILE)) == RUN_LEDGER


def test_a_dedup_stage_parses_only_its_own_records(tmp_path, monkeypatch):
    """A dedup stage that reruns alone builds the records of its own
    epoch only: the earlier epochs' ids are read from the start of each
    line of their instruction files."""
    conf = tmp_path / "pins.conf"
    conf.write_text(CONF, encoding="utf-8")
    config = load_config(str(conf))
    workdir = str(tmp_path / "w")
    run_pipeline(config, workdir)
    ckpt = os.path.join(workdir, CHECKPOINT_FILE)
    ledger = read_json(ckpt)
    del ledger["dedup-01"]
    with open(ckpt, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle)
    built = []
    record_from_dict = records.record_from_dict

    def counting(data, where="record"):
        built.append(where)
        return record_from_dict(data, where)

    monkeypatch.setattr(records, "record_from_dict", counting)
    executed = []
    run_pipeline(config, workdir, stage_hook=executed.append)
    assert executed == ["dedup-01"]
    path = os.path.join(workdir, "instructions-01.jsonl")
    with open(path, "rb") as handle:
        lines = sum(1 for line in handle if line.strip())
    assert built == [f"{path} line {n}" for n in range(1, lines + 1)]
    assert file_sha256(os.path.join(workdir, MANIFEST_FILE)) == RUN_MANIFEST
    assert file_sha256(ckpt) == RUN_LEDGER


def test_ablate_full_writes_the_bytes_of_run(built):
    manifest, out, _ = built
    assert file_sha256(out["full"]) == file_sha256(manifest)
    assert (file_sha256(out["full"] + ".meta.json")
            == file_sha256(manifest + ".meta.json"))


@pytest.mark.parametrize("variant", list(ABLATE))
def test_ablate_records(built, variant):
    _, out, _ = built
    assert file_sha256(out[variant]) == ABLATE[variant]


@pytest.mark.parametrize("variant", list(ABLATE_META))
def test_ablate_meta(built, variant):
    _, out, _ = built
    assert file_sha256(out[variant] + ".meta.json") == ABLATE_META[variant]


@pytest.mark.parametrize("variant", list(ABLATE_CALLS))
def test_ablate_provider_calls(built, variant):
    _, _, calls = built
    assert calls[variant] == ABLATE_CALLS[variant]


@pytest.mark.parametrize("variant", ["fluency", "culture"])
def test_ablate_stages_reach_a_stage_hook(tmp_path, monkeypatch, built,
                                          variant):
    """`cli.run_pipeline`, wrapped as the bench's tracer wraps it, sees
    every stage of a generated variant's build, `topics-00` first and the
    manifest last; `fluency` re-rolls without dedup. A sampled variant
    runs no stage."""
    conf = tmp_path / "pins.conf"
    conf.write_text(CONF, encoding="utf-8")
    executed = []
    run_pipeline = cli.run_pipeline

    def traced(config, workdir, stage_hook=None, **kwargs):
        return run_pipeline(config, workdir, stage_hook=executed.append,
                            **kwargs)

    monkeypatch.setattr(cli, "run_pipeline", traced)
    out = str(tmp_path / f"{variant}.jsonl")
    argv = ablate_argv(conf, variant, out)
    if variant == "culture":
        argv += ["--source", built[1]["full"]]
    assert main(argv) == 0
    assert file_sha256(out) == ABLATE[variant]
    if variant == "culture":
        assert executed == []
    else:
        assert executed[0] == "topics-00" and executed[-1] == "manifest"
        assert "dedup-00" not in executed and "contexts-01" in executed


def test_diversity_at_the_reference_size_is_unmoved(tmp_path, monkeypatch):
    """At the size its row is written for, the row's 750 topics are used
    as they are, so the build writes the bytes it wrote before the counts
    scaled."""
    monkeypatch.setattr(constants, "DATASET_SIZE", 100)
    conf = tmp_path / "pins.conf"
    conf.write_text(CONF, encoding="utf-8")
    out = str(tmp_path / "diversity.jsonl")
    assert main(ablate_argv(conf, "diversity", out)) == 0
    assert file_sha256(out) == DIVERSITY_AT_REFERENCE_SIZE


@pytest.mark.parametrize("size", [50, 100])
def test_diversity_topics_scale_with_the_size(tmp_path, size):
    conf = tmp_path / "pins.conf"
    conf.write_text(CONF, encoding="utf-8")
    out = str(tmp_path / "diversity.jsonl")
    assert main(ablate_argv(conf, "diversity", out, size)) == 0
    recipe = read_json(out + ".meta.json")["recipe"]
    assert (recipe["topics_cultural"], recipe["topics_general"]) == (
        0, math.ceil(750 * size / 5000))


# -- eval report --------------------------------------------------------------

# Two systems over five pairs. The summarization texts span several lines,
# so rouge_lsum takes its own path; one prediction is empty; several texts
# repeat tokens.
EVAL_REFS = [
    ("cq0", "closed_qa", "culture", "แมว แมว นั่ง บน เสื่อ แมว"),
    ("cq1", "closed_qa", "general", "น้ำ ไหล ลง สู่ ทะเล"),
    ("oq0", "open_qa", "culture", "วัด นี้ สร้าง ใน สมัย อยุธยา ตอน ต้น"),
    ("sm0", "summarization", "culture",
     "งาน วัด มี ทุก ปี\nคน มา ไหว้ พระ\nแล้ว กิน ขนม ขนม ไทย"),
    ("sm1", "summarization", "general",
     "ฝน ตก หนัก\nถนน น้ำ ท่วม ถนน"),
]
EVAL_PREDS = {
    "tuned": {
        "cq0": "แมว นั่ง บน เสื่อ แมว แมว",
        "cq1": "น้ำ ไหล ลง ทะเล",
        "oq0": "วัด นี้ สร้าง สมัย อยุธยา",
        "sm0": "คน มา ไหว้ พระ\nงาน วัด มี ทุก ปี\nกิน ขนม ไทย",
        "sm1": "ฝน ตก หนัก มาก\nถนน ท่วม",
    },
    "base": {
        "cq0": "หมา หมา วิ่ง",
        "cq1": "",
        "oq0": "วัด วัด วัด เก่า",
        "sm0": "งาน ปี นี้ สนุก",
        "sm1": "ฝน\nตก\nหนัก",
    },
}
EVAL_REPORT = (
    "31d8b71694c5522cccfc18c3e7422dbcb922601c3fb2bb51e2e07f2198d32af9")


def test_eval_report(tmp_path):
    refs = tmp_path / "refs.jsonl"
    refs.write_text("".join(
        json.dumps({"id": i, "task": task, "test_set": test_set,
                    "reference": text}, ensure_ascii=False) + "\n"
        for i, task, test_set, text in EVAL_REFS), encoding="utf-8")
    argv = ["eval", "--refs", str(refs)]
    for system, preds in EVAL_PREDS.items():
        path = tmp_path / f"{system}.jsonl"
        path.write_text("".join(
            json.dumps({"id": i, "prediction": text}, ensure_ascii=False)
            + "\n" for i, text in preds.items()), encoding="utf-8")
        argv += ["--pred", str(path)]
    out = str(tmp_path / "report.json")
    assert main(argv + ["--out", out]) == 0
    assert file_sha256(out) == EVAL_REPORT


# Sixty seeded pairs for two systems over every task and test set. Texts
# mix Thai (with its combining marks), Latin in both cases, digits, CJK,
# an astral emoji and punctuation; about half span several lines, and
# some sides are empty or whitespace only. Pinned under every tokenizer,
# as each splits these texts differently.
SEEDED_EVAL_REPORT = {
    "unicode_words":
        "d88419b293920ddb8f78ecc08b422d342b113eefcd432b3405796a332b6a5f6e",
    "characters":
        "bc3101947ebbcff58e0b92393f3e4f38a9104853423eb5e783169a1427e8dca8",
    "whitespace":
        "dedf3c3f28a20627f7a7e5fac2ef576b4378ef3e404335cfa4317334efc6088b",
}

_SEEDED_VOCABULARY = (
    "แมว", "น้ำ", "ไหล", "วัด", "สร้าง", "อยุธยา", "ขนม", "ไทย", "ถนน",
    "ท่วม", "กิน", "ปี", "the", "The", "cat", "Cat", "sat", "mat", "river",
    "42", "2024", "๑๒", "東京", "水", "🐘", "café", "naïve", "a", "I",
)
_SEEDED_PUNCTUATION = (",", ".", "!", "?", "«", "»", "—", "(", ")", "ๆ")


def _seeded_text(rng: random.Random) -> str:
    if rng.random() < 0.05:
        return rng.choice(("", " ", "\n \t"))
    lines = []
    for _ in range(rng.choice((1, 1, 2, 3))):
        words = []
        for _ in range(rng.randint(1, 12)):
            word = rng.choice(_SEEDED_VOCABULARY)
            if rng.random() < 0.2:
                word += rng.choice(_SEEDED_PUNCTUATION)
            words.append(word)
        joiner = rng.choice((" ", " ", " ", ""))
        lines.append(joiner.join(words))
    return "\n".join(lines)


def _perturbed(text: str, rng: random.Random, rate: float) -> str:
    out = []
    for line in text.split("\n"):
        words = [w if rng.random() >= rate else rng.choice(_SEEDED_VOCABULARY)
                 for w in line.split(" ")]
        if len(words) > 1 and rng.random() < rate:
            words.pop(rng.randrange(len(words)))
        out.append(" ".join(words))
    return "\n".join(out)


@pytest.mark.parametrize("tokenizer", list(SEEDED_EVAL_REPORT))
def test_seeded_eval_report(tmp_path, tokenizer):
    rng = random.Random(20261019)
    refs, preds = [], {"close": [], "far": []}
    for i in range(60):
        pair_id = f"p{i:02d}"
        ref = _seeded_text(rng)
        refs.append({"id": pair_id, "task": EVAL_TASKS[i % len(EVAL_TASKS)],
                     "test_set": TEST_SETS[i % 2], "reference": ref})
        for system, rate in (("close", 0.2), ("far", 0.7)):
            pred = (_seeded_text(rng) if rng.random() < 0.1
                    else _perturbed(ref, rng, rate))
            preds[system].append({"id": pair_id, "prediction": pred})
    argv = ["eval", "--refs", str(tmp_path / "refs.jsonl"),
            "--tokenizer", tokenizer]
    for name, rows in [("refs", refs)] + list(preds.items()):
        with open(tmp_path / f"{name}.jsonl", "w", encoding="utf-8") as f:
            f.writelines(json.dumps(row, ensure_ascii=False) + "\n"
                         for row in rows)
        if name != "refs":
            argv += ["--pred", str(tmp_path / f"{name}.jsonl")]
    out = str(tmp_path / "report.json")
    assert main(argv + ["--out", out]) == 0
    assert file_sha256(out) == SEEDED_EVAL_REPORT[tokenizer]
