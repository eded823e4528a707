"""Pinned sha256 digests of mock builds.

Refactors must leave the bytes of `run`'s manifest and of every `ablate`
variant unchanged. The config forces the interesting paths at a small
size: 9 topics fall short of 100 records, so `run` and `ablate full` run
an extension epoch and `ablate fluency` re-rolls its 10 topics; a dedup
threshold of 0.8 makes dedup remove records. If a digest must change,
the change that moves it says why.
"""

import json
import os

import pytest

from seedforge.cli import main
from seedforge.pipeline import CHECKPOINT_FILE, MANIFEST_FILE
from seedforge.records import file_sha256, read_records

CONF = """\
run.seed = 42
topics.cultural = 5
topics.general = 4
dataset.size = 100
dedup.threshold = 0.8
"""

RUN_MANIFEST = (
    "d0c929e79d180930d546d92bc35ce8798879ee80baab61e48fd72de44888966e")
RUN_META = (
    "94d59c213404d789a6a17c989ef437ce68bffb3e72797283cb9340fcfa114295")
ABLATE = {
    "full":
        "d0c929e79d180930d546d92bc35ce8798879ee80baab61e48fd72de44888966e",
    "fluency":
        "926ab0c127caac202b7189521abebec45f1d69222d7bd3add90c7afdf5b1d59d",
    "diversity":
        "7e59f337d38c7f312af815a607f11c8a553de3b84c3a25fbc9925f60413ce1e8",
    "culture":
        "7af655f4aa31a7e12f34923a72c923a14689423840e0d603dbca2aaa83e2f49d",
    "none":
        "849cab40b0bd9759687147c3c7683d29c6681dd0dbfd36555cc76d60265aed71",
}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    conf = root / "pins.conf"
    conf.write_text(CONF, encoding="utf-8")
    corpus = root / "external.jsonl"
    corpus.write_text("".join(
        json.dumps({"prompt": f"question {i}", "response": f"answer {i}"})
        + "\n" for i in range(30)), encoding="utf-8")
    workdir = str(root / "run")
    assert main(["run", "--config", str(conf), "--workdir", workdir]) == 0
    out = {}
    for variant in ABLATE:
        out[variant] = str(root / f"{variant}.jsonl")
        argv = ["ablate", "--config", str(conf), "--variant", variant,
                "--size", "100", "--out", out[variant]]
        if variant == "culture":
            argv += ["--source", out["full"]]
        elif variant == "none":
            argv += ["--external", str(corpus)]
        assert main(argv) == 0
    return os.path.join(workdir, MANIFEST_FILE), out


def test_builds_take_the_paths_they_pin(built):
    manifest, out = built
    with open(os.path.join(os.path.dirname(manifest), CHECKPOINT_FILE),
              encoding="utf-8") as handle:
        assert "topics-01" in json.load(handle)
    rounds = {r.id.split("-")[1] for r in read_records(out["fluency"])}
    assert len(rounds) > 1


def test_run_manifest_and_meta(built):
    manifest, _ = built
    assert file_sha256(manifest) == RUN_MANIFEST
    assert file_sha256(manifest + ".meta.json") == RUN_META


@pytest.mark.parametrize("variant", list(ABLATE))
def test_ablate_records(built, variant):
    _, out = built
    assert file_sha256(out[variant]) == ABLATE[variant]
