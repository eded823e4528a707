"""Staged runner: checkpoint skipping, resumability, locking."""

import json
import os
import subprocess

import pytest

from seedforge.config import default_config
from seedforge.errors import BuildError, ConfigError, LockError
from seedforge.gateway.http import HttpCompletionClient, HttpTranslator
from seedforge.gateway.mock import MockTextGenerator
from seedforge.pipeline import (CHECKPOINT_FILE, LOCK_FILE, MANIFEST_FILE,
                                WorkdirLock, build_gateway, epoch_topics,
                                run_pipeline)
from seedforge.records import file_sha256

SMALL = default_config(topics_cultural=8, topics_general=6, dataset_size=50,
                       run_seed=42)

FIRST_RUN_STAGES = ["topics-00", "contexts-00", "instructions-00",
                    "dedup-00", "manifest"]


def manifest_path(workdir):
    return os.path.join(str(workdir), MANIFEST_FILE)


class TestRunPipeline:
    def test_produces_target_size_with_all_flags(self, tmp_path):
        manifest = run_pipeline(SMALL, str(tmp_path))
        assert len(manifest.records) == 50
        assert (manifest.flags.fluency, manifest.flags.culture,
                manifest.flags.diversity) == (True, True, True)
        assert os.path.exists(manifest_path(tmp_path))
        assert os.path.exists(manifest_path(tmp_path) + ".meta.json")
        assert os.path.exists(os.path.join(str(tmp_path), CHECKPOINT_FILE))
        assert not os.path.exists(os.path.join(str(tmp_path), LOCK_FILE))

    def test_meta_echoes_config(self, tmp_path):
        run_pipeline(SMALL, str(tmp_path))
        with open(manifest_path(tmp_path) + ".meta.json",
                  encoding="utf-8") as handle:
            meta = json.load(handle)
        assert meta["config"]["dataset.size"] == 50
        assert meta["config"]["run.seed"] == 42
        assert meta["seed"] == 42

    def test_byte_identical_across_workdirs(self, tmp_path):
        run_pipeline(SMALL, str(tmp_path / "a"))
        run_pipeline(SMALL, str(tmp_path / "b"))
        assert (file_sha256(manifest_path(tmp_path / "a"))
                == file_sha256(manifest_path(tmp_path / "b")))

    def test_rerun_skips_every_stage(self, tmp_path):
        executed = []
        run_pipeline(SMALL, str(tmp_path), stage_hook=executed.append)
        assert executed == FIRST_RUN_STAGES
        before = file_sha256(manifest_path(tmp_path))
        executed.clear()
        manifest = run_pipeline(SMALL, str(tmp_path),
                                stage_hook=executed.append)
        assert executed == []
        assert file_sha256(manifest_path(tmp_path)) == before
        assert len(manifest.records) == 50

    def test_interrupt_then_resume_is_byte_identical(self, tmp_path):
        reference = str(tmp_path / "ref")
        run_pipeline(SMALL, reference)
        want = file_sha256(manifest_path(tmp_path / "ref"))

        workdir = str(tmp_path / "resumed")

        class Interrupt(Exception):
            pass

        def bomb(stage):
            if stage == "dedup-00":
                raise Interrupt(stage)

        with pytest.raises(Interrupt):
            run_pipeline(SMALL, workdir, stage_hook=bomb)
        assert not os.path.exists(os.path.join(workdir, LOCK_FILE))
        executed = []
        run_pipeline(SMALL, workdir, stage_hook=executed.append)
        assert executed == ["dedup-00", "manifest"]
        assert file_sha256(os.path.join(workdir, MANIFEST_FILE)) == want

    def test_content_config_change_invalidates(self, tmp_path):
        run_pipeline(SMALL, str(tmp_path))
        executed = []
        reseeded = default_config(topics_cultural=8, topics_general=6,
                                  dataset_size=50, run_seed=43)
        run_pipeline(reseeded, str(tmp_path), stage_hook=executed.append)
        assert executed == FIRST_RUN_STAGES

    def test_operational_config_change_does_not(self, tmp_path):
        run_pipeline(SMALL, str(tmp_path))
        before = file_sha256(manifest_path(tmp_path))
        executed = []
        retuned = default_config(topics_cultural=8, topics_general=6,
                                 dataset_size=50, run_seed=42,
                                 budget_max_concurrent=1,
                                 budget_requests_per_minute=600)
        run_pipeline(retuned, str(tmp_path), stage_hook=executed.append)
        assert executed == []
        assert file_sha256(manifest_path(tmp_path)) == before

    def test_corrupt_checkpoints_recompute_same_bytes(self, tmp_path):
        run_pipeline(SMALL, str(tmp_path))
        before = file_sha256(manifest_path(tmp_path))
        ckpt = os.path.join(str(tmp_path), CHECKPOINT_FILE)
        with open(ckpt, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        executed = []
        run_pipeline(SMALL, str(tmp_path), stage_hook=executed.append)
        assert executed == FIRST_RUN_STAGES
        assert file_sha256(manifest_path(tmp_path)) == before

    def test_tampered_intermediate_reruns_only_that_stage(self, tmp_path):
        run_pipeline(SMALL, str(tmp_path))
        before = file_sha256(manifest_path(tmp_path))
        target = os.path.join(str(tmp_path), "instructions-00.jsonl")
        with open(target, "ab") as handle:
            handle.write(b"\n")
        executed = []
        run_pipeline(SMALL, str(tmp_path), stage_hook=executed.append)
        assert executed == ["instructions-00"]
        assert file_sha256(manifest_path(tmp_path)) == before

    def test_extension_epochs_close_the_deficit(self, tmp_path):
        tiny = default_config(topics_cultural=1, topics_general=1,
                              dataset_size=30, run_seed=5)
        executed = []
        manifest = run_pipeline(tiny, str(tmp_path / "a"),
                                stage_hook=executed.append)
        assert len(manifest.records) == 30
        assert "topics-01" in executed
        run_pipeline(tiny, str(tmp_path / "b"))
        assert (file_sha256(manifest_path(tmp_path / "a"))
                == file_sha256(manifest_path(tmp_path / "b")))

    def test_unreachable_size_reports_achieved(self, tmp_path):
        hopeless = default_config(topics_cultural=1, topics_general=1,
                                  dataset_size=100)
        with pytest.raises(BuildError) as err:
            run_pipeline(hopeless, str(tmp_path), max_epochs=0)
        assert 0 < err.value.achieved < 100

    def test_stage_failures_name_the_stage(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise BuildError("provider went away", achieved=0)

        monkeypatch.setattr("seedforge.pipeline.build_topic_set", boom)
        with pytest.raises(BuildError) as err:
            run_pipeline(SMALL, str(tmp_path))
        assert err.value.stage == "topics-00"
        assert not os.path.exists(os.path.join(str(tmp_path), LOCK_FILE))


class TestExtensionTopics:
    """An extension epoch drops a new topic already seen in an earlier
    epoch, and one that both categories of the same epoch returned."""

    CONFIG = default_config(topics_cultural=1, topics_general=1)

    def test_topic_in_both_categories_is_kept_once(self, scripted):
        gateway = scripted(['["วัดพระแก้ว"]', '["วัดพระแก้ว", "ทะเล"]'])
        topics = epoch_topics(self.CONFIG, gateway, epoch=1, deficit=16)
        assert [(t.text, t.category) for t in topics] == [
            ("วัดพระแก้ว", "cultural")]

    def test_topic_from_an_earlier_epoch_is_dropped(self, scripted):
        gateway = scripted(['["วัดพระแก้ว"]', '["ทะเล"]'])
        topics = epoch_topics(self.CONFIG, gateway, epoch=1, deficit=16,
                              seen=frozenset({"ทะเล"}))
        assert [t.text for t in topics] == ["วัดพระแก้ว"]


class TestWorkdirLock:
    def test_live_lock_refused(self, tmp_path):
        with WorkdirLock(str(tmp_path)):
            with pytest.raises(LockError, match="live process"):
                run_pipeline(SMALL, str(tmp_path))

    def test_reentry_after_release(self, tmp_path):
        lock = WorkdirLock(str(tmp_path))
        lock.acquire()
        lock.release()
        with WorkdirLock(str(tmp_path)):
            pass

    def test_dead_pid_is_reclaimed(self, tmp_path):
        child = subprocess.Popen(["sleep", "0"])
        child.wait()
        path = os.path.join(str(tmp_path), LOCK_FILE)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": child.pid}, handle)
        with WorkdirLock(str(tmp_path)):
            pass

    def test_garbage_lock_is_reclaimed(self, tmp_path):
        path = os.path.join(str(tmp_path), LOCK_FILE)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("???")
        manifest = run_pipeline(SMALL, str(tmp_path))
        assert len(manifest.records) == 50


class TestBuildGateway:
    def test_mock_kind_is_offline(self):
        gateway = build_gateway(SMALL)
        assert isinstance(gateway.generator, MockTextGenerator)
        assert gateway.budget.max_concurrent == 4

    def test_http_kind_requires_every_url(self):
        cfg = default_config(provider_kind="http")
        with pytest.raises(ConfigError,
                           match="provider.generator.base_url"):
            build_gateway(cfg)
        partial = default_config(
            provider_kind="http",
            provider_generator_base_url="http://localhost:1/v1",
            provider_embedder_base_url="http://localhost:1/v1",
            provider_translator_url="http://localhost:1/translate")
        with pytest.raises(ConfigError,
                           match="provider.paraphraser.url"):
            build_gateway(partial)

    def test_http_kind_wires_clients_without_network(self):
        cfg = default_config(
            provider_kind="http",
            provider_generator_base_url="http://localhost:1/v1",
            provider_embedder_base_url="http://localhost:1/v1",
            provider_translator_url="http://localhost:1/translate",
            provider_paraphraser_url="http://localhost:1/paraphrase")
        gateway = build_gateway(cfg)
        assert isinstance(gateway.generator, HttpCompletionClient)
        assert isinstance(gateway.translator, HttpTranslator)

    def test_named_but_unset_credential_is_an_error(self, monkeypatch):
        monkeypatch.delenv("NO_SUCH_KEY_VAR", raising=False)
        cfg = default_config(
            provider_kind="http",
            provider_generator_base_url="http://localhost:1/v1",
            provider_generator_api_key_env="NO_SUCH_KEY_VAR",
            provider_embedder_base_url="http://localhost:1/v1",
            provider_translator_url="http://localhost:1/translate",
            provider_paraphraser_url="http://localhost:1/paraphrase")
        with pytest.raises(ConfigError, match="NO_SUCH_KEY_VAR"):
            build_gateway(cfg)
