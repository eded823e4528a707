"""Staged runner: checkpoint skipping, resumability, locking."""

import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from seedforge.cli import main as cli_main
from seedforge.config import default_config, parse_config, with_overrides
from seedforge.contexts import WIKI
from seedforge.dedup import read_removals, sample_text, write_spool
from seedforge import pipeline
from seedforge.errors import (BuildError, ConfigError,
                              GenerationExhaustedError, LockError, ParseError)
from seedforge.gateway import Gateway
from seedforge.gateway.http import HttpCompletionClient, HttpTranslator
from seedforge.gateway.mock import MockEmbedder, MockTextGenerator
from seedforge.instructions import (CLOSED_QA, CONVERSATION,
                                    MULTIPLE_CHOICE, SUMMARIZATION)
from seedforge.manifest import read_manifest
from seedforge.pipeline import (CHECKPOINT_FILE, LOCK_FILE, MANIFEST_FILE,
                                STAGES, WorkdirLock, acquire_contexts,
                                build_gateway, epoch_topics, generate_records,
                                read_contexts, read_topics, read_vectors,
                                run_pipeline, write_contexts, write_topics,
                                write_vectors)
from seedforge.records import file_sha256, read_records, write_records
from seedforge.topics import GENERAL, Topic

from doubles import FlakyProvider
from test_contexts import drew_wiki
from test_gateway import LOG_HEADER, log_frames
from test_http import FakeTransport, _gateway as http_gateway
from test_instructions import (VALID_CONV, VALID_MC, VALID_QA_5,
                               VALID_SUMMARY, make_ctx)
from test_pins import CONF as PINS_CONF, RUN_MANIFEST

SMALL = default_config(topics_cultural=8, topics_general=6, dataset_size=50,
                       run_seed=42)

FIRST_RUN_STAGES = ["topics-00", "contexts-00", "instructions-00",
                    "dedup-00", "manifest"]


# Child interpreter: holds the workdir lock until it is killed.
HOLD_LOCK = """
import sys
from seedforge.pipeline import WorkdirLock
WorkdirLock(sys.argv[1]).acquire()
print("ready", flush=True)
sys.stdin.read()
"""


def manifest_path(workdir):
    return os.path.join(str(workdir), MANIFEST_FILE)


class TestRunPipeline:
    def test_produces_target_size_with_all_flags(self, tmp_path):
        run_pipeline(SMALL, str(tmp_path))
        manifest = read_manifest(manifest_path(tmp_path))
        assert len(manifest.records) == 50
        assert (manifest.flags.fluency, manifest.flags.culture,
                manifest.flags.diversity) == (True, True, True)
        assert os.path.exists(manifest_path(tmp_path))
        assert os.path.exists(manifest_path(tmp_path) + ".meta.json")
        assert os.path.exists(os.path.join(str(tmp_path), CHECKPOINT_FILE))
        with WorkdirLock(str(tmp_path)):
            pass

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
        digest = run_pipeline(SMALL, str(tmp_path),
                              stage_hook=executed.append)
        assert executed == []
        assert file_sha256(manifest_path(tmp_path)) == before == digest
        assert len(read_manifest(manifest_path(tmp_path)).records) == 50

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
        with WorkdirLock(workdir):
            pass
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

    @pytest.mark.parametrize("ledger", [
        lambda stages: [],
        lambda stages: {**stages, "topics-00": 5},
        lambda stages: {**stages, "topics-00": {
            **stages["topics-00"], "outputs": ["topics-00.json"]}},
    ], ids=["list", "entry-not-object", "outputs-not-object"])
    def test_wrong_shape_checkpoints_recompute_same_bytes(self, tmp_path,
                                                          ledger):
        run_pipeline(SMALL, str(tmp_path))
        before = file_sha256(manifest_path(tmp_path))
        ckpt = os.path.join(str(tmp_path), CHECKPOINT_FILE)
        with open(ckpt, encoding="utf-8") as handle:
            stages = json.load(handle)
        with open(ckpt, "w", encoding="utf-8") as handle:
            json.dump(ledger(stages), handle)
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
        run_pipeline(tiny, str(tmp_path / "a"), stage_hook=executed.append)
        assert len(read_manifest(manifest_path(tmp_path / "a")).records) == 30
        assert "topics-01" in executed
        run_pipeline(tiny, str(tmp_path / "b"))
        assert (file_sha256(manifest_path(tmp_path / "a"))
                == file_sha256(manifest_path(tmp_path / "b")))

    def test_unreachable_size_reports_achieved(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "MAX_EPOCHS", 0)
        hopeless = default_config(topics_cultural=1, topics_general=1,
                                  dataset_size=100)
        with pytest.raises(BuildError) as err:
            run_pipeline(hopeless, str(tmp_path))
        assert 0 < err.value.achieved < 100

    def test_stage_failures_name_the_stage(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise BuildError("provider went away", achieved=0)

        monkeypatch.setattr("seedforge.pipeline.generate_topics", boom)
        with pytest.raises(BuildError) as err:
            run_pipeline(SMALL, str(tmp_path))
        assert err.value.stage == "topics-00"
        with WorkdirLock(str(tmp_path)):
            pass


class TestDeterminismUnderFaults:
    PROVIDERS = ("generator", "embedder", "translator", "paraphraser", "wiki")

    def test_flaky_providers_leave_the_same_manifest(self, tmp_path,
                                                     monkeypatch):
        run_pipeline(SMALL, str(tmp_path / "clean"))
        clean_build = pipeline.build_gateway
        built = []

        def flaky_build(config):
            clean = clean_build(config)
            gateway = Gateway(
                **{name: FlakyProvider(getattr(clean, name), failures=3)
                   for name in self.PROVIDERS},
                budget=clean.budget, sleep=lambda seconds: None)
            built.append(gateway)
            return gateway

        monkeypatch.setattr(pipeline, "build_gateway", flaky_build)
        run_pipeline(SMALL, str(tmp_path / "flaky"))
        (gateway,) = built
        assert gateway.stats.retries > 0
        # every provider the run uses failed its first three calls
        for name in ("generator", "embedder", "wiki"):
            assert getattr(gateway, name).attempts > 3
        with open(manifest_path(tmp_path / "clean"), "rb") as clean, \
                open(manifest_path(tmp_path / "flaky"), "rb") as flaky:
            assert flaky.read() == clean.read()


class TestWarmRebuild:
    """A rebuild into a fresh workdir from a filled `cache.dir`."""

    @pytest.fixture
    def gateways(self, monkeypatch):
        built = []
        clean_build = pipeline.build_gateway

        def recording_build(config):
            built.append(clean_build(config))
            return built[-1]

        monkeypatch.setattr(pipeline, "build_gateway", recording_build)
        return built

    @staticmethod
    def calls(gateway):
        return sum(gateway.stats.snapshot()["provider_calls"].values())

    def test_rebuild_makes_no_provider_calls(self, tmp_path, gateways):
        config = replace(SMALL, cache_dir=str(tmp_path / "cache"))
        run_pipeline(SMALL, str(tmp_path / "uncached"))
        run_pipeline(config, str(tmp_path / "cold"))
        run_pipeline(config, str(tmp_path / "warm"))
        _, cold, warm = gateways
        assert self.calls(cold) > 0
        assert self.calls(warm) == 0
        cold_stats = cold.stats.snapshot()
        assert sum(warm.stats.snapshot()["cache_hits"].values()) == (
            self.calls(cold) + sum(cold_stats["cache_hits"].values()))
        want = file_sha256(manifest_path(tmp_path / "uncached"))
        for name in ("cold", "warm"):
            assert file_sha256(manifest_path(tmp_path / name)) == want

    def test_log_cut_mid_frame_rebuilds_the_same_bytes(self, tmp_path,
                                                       gateways):
        cache = tmp_path / "cache"
        config = replace(SMALL, cache_dir=str(cache))
        run_pipeline(config, str(tmp_path / "cold"))
        frames = log_frames(cache)
        middle = len(frames) // 2
        cut = sum(LOG_HEADER.size + len(body)
                  for _, _, body in frames[:middle])
        os.truncate(cache / "responses.log",
                    cut + LOG_HEADER.size + len(frames[middle][2]) // 2)
        run_pipeline(config, str(tmp_path / "warm"))
        cold, warm = gateways
        assert 0 < self.calls(warm) < self.calls(cold)
        assert (file_sha256(manifest_path(tmp_path / "warm"))
                == file_sha256(manifest_path(tmp_path / "cold")))
        assert len(log_frames(cache)) >= len(frames)


class TestIncrementalDedup:
    """Each dedup stage saves its epoch's vectors and every removal so far;
    the next epoch embeds and scans only its own new records."""

    TINY = default_config(topics_cultural=1, topics_general=1,
                          dataset_size=30, run_seed=5)

    @pytest.fixture
    def embedded(self, monkeypatch):
        texts = []
        original = MockEmbedder.embed_batch

        def counting(self, batch):
            texts.extend(batch)
            return original(self, batch)

        monkeypatch.setattr(MockEmbedder, "embed_batch", counting)
        return texts

    @staticmethod
    def epoch_texts(workdir, epoch):
        return sorted(sample_text(r) for r in read_records(
            os.path.join(str(workdir), f"instructions-{epoch:02d}.jsonl")))

    def test_every_record_is_embedded_once(self, tmp_path, embedded):
        executed = []
        run_pipeline(self.TINY, str(tmp_path), stage_hook=executed.append)
        assert "dedup-01" in executed and "dedup-02" not in executed
        assert sorted(embedded) == sorted(self.epoch_texts(tmp_path, 0)
                                          + self.epoch_texts(tmp_path, 1))
        for epoch in (0, 1):
            vectors = np.load(os.path.join(str(tmp_path),
                                           f"vectors-{epoch:02d}.npy"),
                              allow_pickle=False)
            assert vectors.shape == (len(self.epoch_texts(tmp_path, epoch)),
                                     256)

    def test_rerun_of_dedup_01_embeds_only_epoch_1(self, tmp_path,
                                                     embedded):
        clean = str(tmp_path / "clean")
        run_pipeline(self.TINY, clean)
        workdir = str(tmp_path / "resumed")
        run_pipeline(self.TINY, workdir)
        ckpt = os.path.join(workdir, CHECKPOINT_FILE)
        with open(ckpt, encoding="utf-8") as handle:
            stages = json.load(handle)
        del stages["dedup-01"]
        with open(ckpt, "w", encoding="utf-8") as handle:
            json.dump(stages, handle)
        embedded.clear()
        executed = []
        run_pipeline(self.TINY, workdir, stage_hook=executed.append)
        assert executed == ["dedup-01"]
        assert sorted(embedded) == self.epoch_texts(workdir, 1)
        for name in (MANIFEST_FILE, "removed-01.json", "vectors-01.npy"):
            assert (file_sha256(os.path.join(workdir, name))
                    == file_sha256(os.path.join(clean, name)))

    def test_pins_run_writes_new_rows_and_no_pool(self, tmp_path):
        config = default_config(topics_cultural=5, topics_general=4,
                                dataset_size=100, dedup_threshold=0.8,
                                run_seed=42)
        run_pipeline(config, str(tmp_path))
        names = os.listdir(str(tmp_path))
        assert not [n for n in names if n.startswith("pool-")]
        epochs = sorted(n for n in names if n.startswith("instructions-"))
        assert len(epochs) >= 2
        gateway = build_gateway(config)
        removed = []
        for epoch in range(len(epochs)):
            records = sorted(read_records(os.path.join(
                str(tmp_path), f"instructions-{epoch:02d}.jsonl")),
                key=lambda r: r.id)
            vectors = np.load(os.path.join(str(tmp_path),
                                           f"vectors-{epoch:02d}.npy"),
                              allow_pickle=False)
            assert np.array_equal(
                vectors, gateway.embed([sample_text(r) for r in records]))
            later = read_removals(os.path.join(str(tmp_path),
                                               f"removed-{epoch:02d}.json"))
            assert later[:len(removed)] == removed
            removed = later
        assert removed, "threshold 0.8 removes records"

    def test_skipped_dedup_hands_its_pool_to_a_stage_that_runs(
            self, tmp_path):
        # Only the manifest reruns, from the pool that the skipped dedup
        # stages rebuild out of the instruction files and removed-NN.json.
        config = replace(self.TINY, dedup_threshold=0.8)
        workdir = str(tmp_path)
        run_pipeline(config, workdir)
        assert read_removals(os.path.join(workdir, "removed-01.json"))
        before = file_sha256(manifest_path(tmp_path))
        os.remove(manifest_path(tmp_path))
        executed = []
        run_pipeline(config, workdir, stage_hook=executed.append)
        assert executed == ["manifest"]
        assert file_sha256(manifest_path(tmp_path)) == before

    def test_ledger_naming_other_files_reruns_the_stage(self, tmp_path):
        # A workdir whose dedup entries name the files of an older layout
        # (pool-NN.jsonl in place of removed-NN.json) reruns them once.
        workdir = str(tmp_path)
        run_pipeline(self.TINY, workdir)
        before = file_sha256(manifest_path(tmp_path))
        ckpt = os.path.join(workdir, CHECKPOINT_FILE)
        with open(ckpt, encoding="utf-8") as handle:
            stages = json.load(handle)
        for epoch in (0, 1):
            removed = os.path.join(workdir, f"removed-{epoch:02d}.json")
            os.remove(removed)
            pool = os.path.join(workdir, f"pool-{epoch:02d}.jsonl")
            outputs = stages[f"dedup-{epoch:02d}"]["outputs"]
            del outputs[f"removed-{epoch:02d}.json"]
            outputs[os.path.basename(pool)] = write_records([], pool)
        with open(ckpt, "w", encoding="utf-8") as handle:
            json.dump(stages, handle)
        executed = []
        run_pipeline(self.TINY, workdir, stage_hook=executed.append)
        assert executed == ["dedup-00", "dedup-01"]
        assert file_sha256(manifest_path(tmp_path)) == before

    def test_each_ledger_entry_names_its_kinds_files(self, tmp_path):
        # Every stage of a cold run writes exactly the files that its
        # kind's row of the stage table names, for its epoch.
        workdir = str(tmp_path)
        run_pipeline(parse_config(PINS_CONF), workdir)
        with open(os.path.join(workdir, CHECKPOINT_FILE),
                  encoding="utf-8") as handle:
            stages = json.load(handle)
        assert {name.split("-")[0] for name in stages} == set(STAGES)
        for name, entry in stages.items():
            kind, _, epoch = name.partition("-")
            assert sorted(entry["outputs"]) == sorted(
                pattern.format(epoch) for pattern, _, _ in STAGES[kind])
            for fname in entry["outputs"]:
                assert os.path.exists(os.path.join(workdir, fname))

    def test_an_epoch_without_records(self, tmp_path, monkeypatch):
        # Every task of epoch 1 failed to parse: it writes no records and
        # a (0, 0) vectors file, which the next epoch's dedup skips.
        original = pipeline.generate_records
        calls = []

        def second_yields_nothing(*args):
            calls.append(args)
            return ([], []) if len(calls) == 2 else original(*args)

        monkeypatch.setattr(pipeline, "generate_records",
                            second_yields_nothing)
        conf = tmp_path / "run.conf"
        conf.write_text(PINS_CONF, encoding="utf-8")
        workdir = str(tmp_path / "out")
        assert cli_main(["run", "--config", str(conf),
                         "--workdir", workdir]) == 0
        assert len(calls) >= 3
        assert np.load(os.path.join(workdir, "vectors-01.npy"),
                       allow_pickle=False).size == 0
        assert len(read_manifest(manifest_path(workdir)).records) == 100

    def test_tampered_vectors_rerun_their_dedup(self, tmp_path, embedded):
        run_pipeline(self.TINY, str(tmp_path))
        before = file_sha256(manifest_path(tmp_path))
        target = os.path.join(str(tmp_path), "vectors-00.npy")
        with open(target, "r+b") as handle:
            handle.seek(-8, os.SEEK_END)
            handle.write(b"\x01" * 8)
        embedded.clear()
        executed = []
        run_pipeline(self.TINY, str(tmp_path), stage_hook=executed.append)
        assert executed == ["dedup-00"]
        assert sorted(embedded) == self.epoch_texts(tmp_path, 0)
        assert file_sha256(manifest_path(tmp_path)) == before


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (1, 1), (37, 256),
                                   (130, 8)])
def test_a_vectors_file_holds_what_np_save_writes(tmp_path, shape):
    # Spooled as its rows arrive, in batches of up to 16 rows, hashed as
    # it goes, moved into place by its writer and read back a set of rows
    # at a time; an epoch without records writes the (0, 0) array.
    vectors = np.random.default_rng(1).normal(size=shape)
    # (0, 4) arrives as one empty batch of width 4, (0, 0) as no batch.
    batches = [vectors[lo:lo + 16]
               for lo in range(0, max(1, len(vectors)), 16)] if shape[1] else []
    spool = str(tmp_path / "vectors-00.npy.spool")
    path = str(tmp_path / "vectors-00.npy")
    spooled = write_spool(spool, len(vectors), batches)
    digest = write_vectors(spooled, path)
    assert not os.path.exists(spool) and spooled.path == path
    saved = io.BytesIO()
    np.save(saved, vectors, allow_pickle=False)
    with open(path, "rb") as handle:
        assert handle.read() == saved.getvalue()
    assert digest == hashlib.sha256(saved.getvalue()).hexdigest()
    read = read_vectors(path)
    assert read.shape == shape and read.sha256 is None
    for at in (np.arange(shape[0]), np.arange(0, shape[0], 3),
               np.array([k for k in range(shape[0]) if k % 5 in (1, 2)],
                        dtype=int)):
        rows = np.empty((len(at), shape[1]))
        read.read(at, rows)
        assert np.array_equal(rows, vectors[at])


def test_a_stage_file_is_written_a_chunk_at_a_time(tmp_path, peak):
    # 20,000 records through the instructions stage's writer: a chunk of
    # rows, their text and their bytes, and the ids seen so far are alive
    # at once, never the file's text or bytes whole.
    config = default_config(topics_cultural=1, topics_general=1)
    gateway = Gateway.mock()
    batch, _ = generate_records(acquire_contexts(
        epoch_topics(config, gateway), gateway, config), gateway, config)
    records = [replace(batch[i % len(batch)], id=f"r{i:05d}")
               for i in range(20_000)]
    _, write, _ = STAGES["instructions"][0]
    path = str(tmp_path / "instructions-00.jsonl")
    digest, used = peak(write, records, path)
    assert digest == file_sha256(path)
    assert used < os.path.getsize(path) / 4


class TestExtensionTopics:
    """An extension epoch skips a new topic already seen in an earlier
    epoch, or claimed by the other category of the same epoch, and
    refills the category from its next batch."""

    CONFIG = default_config(topics_cultural=1, topics_general=1)

    def test_topic_in_both_categories_is_kept_once(self, scripted):
        gateway = scripted(['["วัดพระแก้ว"]', '["วัดพระแก้ว"]', '["ทะเล"]'])
        topics = epoch_topics(self.CONFIG, gateway, epoch=1, deficit=16)
        assert [(t.text, t.category, t.batch_id) for t in topics] == [
            ("วัดพระแก้ว", "cultural", 1100), ("ทะเล", "general", 1101)]

    def test_topic_from_an_earlier_epoch_is_dropped(self, scripted):
        gateway = scripted(['["วัดพระแก้ว"]', '["ทะเล"]', '["ตลาดน้ำ"]'])
        topics = epoch_topics(self.CONFIG, gateway, epoch=1, deficit=16,
                              seen=frozenset({"ทะเล"}))
        assert [t.text for t in topics] == ["วัดพระแก้ว", "ตลาดน้ำ"]

    def test_only_seen_topics_exhaust_the_extension(self, scripted):
        gateway = scripted(['["ทะเล"]'], loop=True)
        with pytest.raises(GenerationExhaustedError, match="0/1 cultural"):
            epoch_topics(self.CONFIG, gateway, epoch=1, deficit=16,
                         seen=frozenset({"ทะเล"}))


class NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a stage started a thread pool")


class BarrierTransport(FakeTransport):
    """Holds each request until `parties` are in flight at once, and keeps
    the most it saw in flight."""

    def __init__(self, parties, *replies):
        super().__init__(*replies)
        self._barrier = threading.Barrier(parties, timeout=5)
        self._lock = threading.Lock()
        self._in_flight = 0
        self.most_in_flight = 0

    def request(self, *args, **kwargs):
        with self._lock:
            self._in_flight += 1
            self.most_in_flight = max(self.most_in_flight, self._in_flight)
        try:
            self._barrier.wait()
            return super().request(*args, **kwargs)
        finally:
            with self._lock:
                self._in_flight -= 1


def _generated_contexts(gateway, count):
    """acquire_contexts of `count` topics, every context generated by one
    completion request."""
    topics = [Topic(f"หัวข้อ {i}", GENERAL) for i in range(count)]
    config = default_config(run_seed=5, context_p_wiki=0.0)
    return acquire_contexts(topics, gateway, config)


def _completion(text):
    return (200, {"choices": [{"message": {"content": text}}]})


class TestStageThreads:
    """The contexts and instructions stages use threads only when some
    provider is remote; local providers run inline with the same bytes."""

    PROVIDERS = TestDeterminismUnderFaults.PROVIDERS

    def test_mock_build_starts_no_pool(self, tmp_path, monkeypatch):
        monkeypatch.setattr("seedforge.contexts.ThreadPoolExecutor",
                            NoPool)
        run_pipeline(parse_config(PINS_CONF), str(tmp_path))
        assert file_sha256(manifest_path(tmp_path)) == RUN_MANIFEST

    def test_remote_providers_run_threaded_with_the_same_bytes(
            self, tmp_path, monkeypatch):
        clean_build = pipeline.build_gateway

        def remote_build(config):
            gateway = clean_build(config)
            for name in self.PROVIDERS:
                getattr(gateway, name).remote = True
            return gateway

        pools = []

        def counting_pool(max_workers):
            pools.append(max_workers)
            return ThreadPoolExecutor(max_workers=max_workers)

        monkeypatch.setattr(pipeline, "build_gateway", remote_build)
        monkeypatch.setattr("seedforge.contexts.ThreadPoolExecutor",
                            counting_pool)
        config = with_overrides(parse_config(PINS_CONF), {
            "budget.max_concurrent": 4,
            "budget.requests_per_minute": 10**9})
        run_pipeline(config, str(tmp_path))
        assert pools and set(pools) == {4}
        assert file_sha256(manifest_path(tmp_path)) == RUN_MANIFEST

    def test_one_slot_http_gateway_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr("seedforge.contexts.ThreadPoolExecutor",
                            NoPool)
        gateway = http_gateway(
            FakeTransport(*(_completion(f"เนื้อหา {i}") for i in range(3))),
            max_concurrent=1)
        assert gateway.concurrency == 1
        contexts = _generated_contexts(gateway, 3)
        assert [(key, doc.body) for key, doc in contexts] == [
            (f"t{i:04d}-r00", f"เนื้อหา {i}") for i in range(3)]

    @pytest.mark.parametrize("max_concurrent", [2, 4])
    def test_http_gateway_fills_every_slot_and_no_more(self,
                                                        max_concurrent):
        count = 2 * max_concurrent
        transport = BarrierTransport(
            max_concurrent, *[_completion("เนื้อหา")] * count)
        gateway = http_gateway(transport, max_concurrent=max_concurrent)
        assert gateway.concurrency == max_concurrent
        contexts = _generated_contexts(gateway, count)
        assert [key for key, _ in contexts] == [
            f"t{i:04d}-r00" for i in range(count)]
        assert len(transport.requests) == count
        assert transport.most_in_flight == max_concurrent


def run_topics(config, scripted):
    """Cultural topics only; every batch is unparseable, so the stage
    stops after budget.retry_limit + 1 requests."""
    gateway = scripted(["no list"], loop=True)
    with pytest.raises(GenerationExhaustedError):
        epoch_topics(with_overrides(config, {"topics.general": 0,
                                             "topics.cultural": 1}), gateway)
    return gateway.generator.requests, []


def run_contexts(config, scripted):
    gateway = scripted(["เนื้อหา"], loop=True)
    topics = [Topic(f"หัวข้อ {i}", GENERAL) for i in range(8)]
    contexts = acquire_contexts(topics, gateway, config)
    return gateway.generator.requests, [doc for _, doc in contexts]


def run_task(task, reply):
    def run(config, scripted):
        gateway = scripted([reply], loop=True)
        records, _ = generate_records([("t0000-r00", make_ctx())], gateway,
                                      config, (task,))
        return gateway.generator.requests, records
    return run


def temperatures(requests, out):
    return {r.temperature for r in requests}


# key, override, stage body, the values the requests or the output show
COPIED_KEYS = [
    ("topics.per_batch", 7, run_topics,
     lambda reqs, out: {int(re.search(r"generate (\d+) ", r.prompt)[1])
                        for r in reqs}),
    ("temperature.topics", 0.5, run_topics, temperatures),
    ("run.culture", "Lao", run_topics,
     lambda reqs, out: {re.search(r"native (\w+) person", r.prompt)[1]
                        for r in reqs}),
    ("budget.retry_limit", 1, run_topics,
     lambda reqs, out: {len(reqs) - 1}),
    ("context.p_wiki", 0.0, run_contexts,
     lambda reqs, out: {float(drew_wiki(d)) for d in out}),
    ("context.p_wiki", 1.0, run_contexts,
     lambda reqs, out: {float(drew_wiki(d)) for d in out}),
    ("context.wiki_top_k", 3, run_contexts,
     lambda reqs, out: {d.provenance["n_candidates"] for d in out
                        if d.source.kind == WIKI}),
    ("temperature.context", 0.5, run_contexts, temperatures),
    ("temperature.closed_qa", 0.9, run_task(CLOSED_QA, VALID_QA_5),
     temperatures),
    ("temperature.summarization", 0.9,
     run_task(SUMMARIZATION, VALID_SUMMARY), temperatures),
    ("temperature.conversation", 0.1, run_task(CONVERSATION, VALID_CONV),
     temperatures),
    ("temperature.multiple_choice", 0.9,
     run_task(MULTIPLE_CHOICE, VALID_MC), temperatures),
    ("tasks.qa_pairs", 2, run_task(CLOSED_QA, VALID_QA_5),
     lambda reqs, out: {int(re.search(r"Generate (\d+) questions",
                                      r.prompt)[1]) for r in reqs}),
    ("run.target_language", "lo", run_task(CONVERSATION, VALID_CONV),
     lambda reqs, out: {r.language for r in out}),
]


class TestStageBodiesReadTheConfig:
    """Each key a stage body reads reaches the requests it sends or the
    values it returns."""

    @pytest.mark.parametrize(
        "key,value,run,shown", COPIED_KEYS,
        ids=[f"{key}={value}" for key, value, _, _ in COPIED_KEYS])
    def test_override_arrives(self, scripted, key, value, run, shown):
        config = with_overrides(default_config(run_seed=5), {key: value})
        requests, out = run(config, scripted)
        assert requests or out
        assert shown(requests, out) == {value}


class TestTopicRows:
    """Topics, contexts and record files hold a topic in one JSON form."""

    def test_string_batch_id_reads_as_int(self, tmp_path):
        path = tmp_path / "topics.json"
        path.write_text('[{"text": "ทะเล", "category": "general", '
                        '"batch_id": "7"}]', encoding="utf-8")
        [topic] = read_topics(str(path))
        assert topic.batch_id == 7

    def test_topic_without_text_is_rejected_on_every_read_path(
            self, tmp_path):
        """Each reader names the file, and the line where rows have one."""
        doc = make_ctx()
        [record], _ = generate_records([("t0000-r00", doc)], Gateway.mock(),
                                       default_config(), (CONVERSATION,))
        cases = [
            (write_topics, [doc.topic], read_topics, "topics.json",
             "not a topics file"),
            (write_contexts, [("t0000-r00", doc), ("t0001-r00", doc)],
             read_contexts, "contexts.jsonl",
             "not a contexts file .* at line 2"),
            (write_records, [replace(record, id="r0"), record],
             read_records, "records.jsonl", "line 2: topic has no 'text'"),
        ]
        for write, rows, read, name, message in cases:
            path = str(tmp_path / name)
            write(rows, path)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            # the last "text" key in each file is the last row's topic text
            at = text.rindex('"text"')
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text[:at] + '"gone"' + text[at + len('"text"'):])
            with pytest.raises(ParseError,
                               match=f"{re.escape(path)}.*{message}"):
                read(path)


class TestWorkdirLock:
    def test_live_lock_refused(self, tmp_path):
        with WorkdirLock(str(tmp_path)):
            with pytest.raises(LockError, match="live process"):
                run_pipeline(SMALL, str(tmp_path))

    def test_released_after_a_build_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "MAX_EPOCHS", 0)
        hopeless = default_config(topics_cultural=1, topics_general=1,
                                  dataset_size=100)
        with pytest.raises(BuildError):
            run_pipeline(hopeless, str(tmp_path))
        with WorkdirLock(str(tmp_path)):
            pass

    def test_released_when_the_ledger_cannot_be_read(self, tmp_path):
        os.makedirs(os.path.join(str(tmp_path), CHECKPOINT_FILE))
        with pytest.raises(OSError):
            run_pipeline(SMALL, str(tmp_path))
        with WorkdirLock(str(tmp_path)):
            pass

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
        run_pipeline(SMALL, str(tmp_path))
        assert len(read_manifest(manifest_path(tmp_path)).records) == 50

    @pytest.mark.parametrize("content", [
        "[1]", '{"pid": null}', '{"pid": 0}', '{"pid": true}',
        '{"pid": 100000000000000000000}'])
    def test_wrong_shape_lock_is_reclaimed(self, tmp_path, content):
        path = os.path.join(str(tmp_path), LOCK_FILE)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
        with WorkdirLock(str(tmp_path)):
            pass

    def test_lock_naming_this_pid_does_not_block_a_rerun(self, tmp_path):
        run_pipeline(SMALL, str(tmp_path))
        with open(os.path.join(str(tmp_path), LOCK_FILE), "w",
                  encoding="utf-8") as handle:
            json.dump({"pid": os.getpid()}, handle)
        executed = []
        run_pipeline(SMALL, str(tmp_path), stage_hook=executed.append)
        assert executed == []

    def test_lock_held_by_another_process_until_it_is_killed(self, tmp_path):
        clean = str(tmp_path / "clean")
        run_pipeline(SMALL, clean)
        workdir = str(tmp_path / "work")
        os.makedirs(workdir)
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        child = subprocess.Popen(
            [sys.executable, "-c", HOLD_LOCK, workdir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src})
        try:
            assert child.stdout.readline() == "ready\n"
            with pytest.raises(LockError, match="live process"):
                run_pipeline(SMALL, workdir)
        finally:
            child.kill()
            child.wait(timeout=30)
            child.stdin.close()
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL
        assert os.path.exists(os.path.join(workdir, LOCK_FILE))
        run_pipeline(SMALL, workdir)
        assert (file_sha256(manifest_path(workdir))
                == file_sha256(manifest_path(clean)))


class TestBuildGateway:
    def test_mock_kind_is_offline(self):
        gateway = build_gateway(SMALL)
        assert isinstance(gateway.generator, MockTextGenerator)
        assert gateway.budget.max_concurrent == 4
        assert gateway.concurrency == 1

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
        assert gateway.concurrency == cfg.budget_max_concurrent

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
