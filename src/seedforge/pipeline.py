"""Resumable staged pipeline runner: the one build engine.

A build is unrolled into a linear chain of stages per extension epoch
(topics, contexts, instructions, dedup) plus, for `run`, one final
manifest stage. Each stage persists its outputs under the working
directory and records a digest in checkpoints.json; the digest chains the
stage name, the content-relevant config, and the upstream stage digest, so
a rerun skips exactly the stages whose inputs are unchanged and whose
outputs still verify. Operational settings (budget, cache) do not enter
the digest: changing them never invalidates work.

The stage bodies are plain functions shared with the CLI stage commands,
and the generated ablation variants run the same epoch loop through
`build_pool`.

Determinism: all randomness is derived from (run.seed, stage path), never
from wall clock or completion order, so a run interrupted at any stage
boundary resumes to a byte-identical manifest.
"""

from __future__ import annotations

import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from hashlib import sha256

from seedforge import constants
from seedforge.config import PipelineConfig
from seedforge.contexts import (ContextDoc, ContextPolicy, acquire_context,
                                context_from_dict, context_to_dict)
from seedforge.dedup import DedupResult, dedup_filter
from seedforge.errors import (BuildError, ConfigError, LockError,
                              SeedforgeError)
from seedforge.gateway import Gateway, ProviderBudget
from seedforge.gateway.http import (HttpCompletionClient, HttpEmbedder,
                                    HttpParaphraser, HttpTranslator,
                                    MediaWikiClient)
from seedforge.instructions import (GENERATION_TASKS, GenerationFailure,
                                    InstructionRecord, TaskSettings,
                                    generate_for_context)
from seedforge.manifest import (VARIANT_FULL, DatasetManifest, Recipe,
                                finish_manifest, read_manifest,
                                truncate_records, write_manifest)
from seedforge.records import (file_sha256, read_json, read_jsonl_lines,
                               read_records, write_json, write_jsonl,
                               write_records)
from seedforge.topics import (CULTURAL, GENERAL, Topic, build_topic_set,
                              generate_topics, normalize_topic)

logger = logging.getLogger(__name__)

CHECKPOINT_FILE = "checkpoints.json"
LOCK_FILE = ".lock.json"
MANIFEST_FILE = "manifest.jsonl"

MAX_EPOCHS = 20

# A topic contributes at most 5 QA + summary + conversation + MC records.
RECORDS_PER_TOPIC = constants.QA_PAIRS_PER_CONTEXT + 3

# Extension topic batches start here so they can never collide with the
# batch numbers of the initial topic set.
_EXTENSION_BATCH_BASE = 1000
_EXTENSION_BATCH_STRIDE = 100


def build_gateway(config: PipelineConfig) -> Gateway:
    """Wire providers from config. kind=mock runs fully offline."""
    budget = ProviderBudget(
        requests_per_minute=config.budget_requests_per_minute,
        max_concurrent=config.budget_max_concurrent,
        retry_limit=config.budget_retry_limit)
    cache_dir = config.cache_dir or None
    if config.provider_kind == "mock":
        return Gateway.mock(budget=budget, cache_dir=cache_dir,
                            embed_dim=config.provider_embed_dim,
                            paraphrase_seed=config.run_seed)
    for key, value in (("provider.generator.base_url",
                        config.provider_generator_base_url),
                       ("provider.embedder.base_url",
                        config.provider_embedder_base_url),
                       ("provider.translator.url",
                        config.provider_translator_url),
                       ("provider.paraphraser.url",
                        config.provider_paraphraser_url)):
        if not value:
            raise ConfigError(f"provider.kind=http requires {key}")
    generator = HttpCompletionClient(
        base_url=config.provider_generator_base_url,
        model=config.provider_generator_model,
        api_key_env=config.provider_generator_api_key_env,
        style=config.provider_generator_style)
    embedder = HttpEmbedder(
        base_url=config.provider_embedder_base_url,
        model=config.provider_embedder_model,
        api_key_env=config.provider_embedder_api_key_env)
    pivot = config.run_pivot_language
    target = config.run_target_language
    translator = HttpTranslator(
        base_url=config.provider_translator_url,
        pairs=frozenset({(target, pivot), (pivot, target)}))
    paraphraser = HttpParaphraser(base_url=config.provider_paraphraser_url)
    wiki = MediaWikiClient(api_url=config.provider_wiki_api_url)
    return Gateway(generator=generator, embedder=embedder,
                   translator=translator, paraphraser=paraphraser,
                   wiki=wiki, budget=budget, cache_dir=cache_dir)


class WorkdirLock:
    """Single-writer guard on a working directory.

    The lock file records the owner pid; a lock whose process is gone is
    stale and silently reclaimed, so a crashed run never wedges the
    directory.
    """

    def __init__(self, workdir: str):
        self.path = os.path.join(workdir, LOCK_FILE)
        self._held = False

    def acquire(self) -> None:
        for _ in range(2):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self._is_stale():
                    try:
                        os.unlink(self.path)
                    except FileNotFoundError:
                        pass
                    continue
                raise LockError(
                    f"{self.path} is held by a live process; remove the "
                    f"file only if you are sure no run is active")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump({"pid": os.getpid()}, handle)
            self._held = True
            return
        raise LockError(f"could not acquire {self.path}")

    def _is_stale(self) -> bool:
        try:
            with open(self.path, encoding="utf-8") as handle:
                pid = int(json.load(handle)["pid"])
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            return True
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:
            return False
        return False

    def release(self) -> None:
        if self._held:
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
            self._held = False

    def __enter__(self) -> "WorkdirLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class _Checkpoints:
    """Stage ledger: digest plus output-file hashes, rewritten atomically
    after every completed stage."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.path = os.path.join(workdir, CHECKPOINT_FILE)
        self.stages: dict = {}
        if os.path.exists(self.path):
            try:
                with open(self.path, encoding="utf-8") as handle:
                    self.stages = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError):
                logger.warning("unreadable %s, starting over", self.path)
                self.stages = {}

    def fresh(self, stage: str, digest: str) -> bool:
        entry = self.stages.get(stage)
        if not entry or entry.get("digest") != digest:
            return False
        for name, expected in entry.get("outputs", {}).items():
            path = os.path.join(self.workdir, name)
            if not os.path.exists(path) or file_sha256(path) != expected:
                return False
        return True

    def record(self, stage: str, digest: str, outputs: dict) -> None:
        self.stages[stage] = {"digest": digest, "outputs": outputs}
        write_json(self.path, self.stages)


def _chain(stage: str, config_digest: str, upstream: str) -> str:
    return sha256(f"{stage}\n{config_digest}\n{upstream}".encode()).hexdigest()


# -- settings from config ----------------------------------------------------

def topic_kwargs(config: PipelineConfig) -> dict:
    return {"batch_size": config.topics_per_batch,
            "temperature": config.temperature_topics,
            "culture": config.run_culture,
            "retry_limit": config.budget_retry_limit}


def context_policy(config: PipelineConfig) -> ContextPolicy:
    return ContextPolicy(p_wiki=config.context_p_wiki,
                         wiki_top_k=config.context_wiki_top_k,
                         temperature=config.temperature_context)


def task_settings(config: PipelineConfig) -> TaskSettings:
    return TaskSettings(
        temperature_closed_qa=config.temperature_closed_qa,
        temperature_summarization=config.temperature_summarization,
        temperature_conversation=config.temperature_conversation,
        temperature_multiple_choice=config.temperature_multiple_choice,
        qa_pairs=config.tasks_qa_pairs,
        language=config.run_target_language)


# -- stage bodies, shared with the CLI stage commands -------------------------

def parallel_map(fn, count: int, workers: int) -> list:
    """fn(0..count-1) on up to `workers` threads, results in index order."""
    if count == 0:
        return []
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        return list(pool.map(fn, range(count)))


def epoch_topics(config: PipelineConfig, gateway, epoch: int = 0,
                 deficit: int = 0,
                 seen: set[str] | frozenset[str] = frozenset()
                 ) -> list[Topic]:
    """Epoch 0: the configured topic set. Later epochs: enough new topics,
    in the configured category ratio, to cover `deficit` records; topics
    already in `seen` (normalized) or in the other category are dropped."""
    kwargs = topic_kwargs(config)
    if epoch == 0:
        return list(build_topic_set(
            gateway, config.run_seed, general=config.topics_general,
            cultural=config.topics_cultural, **kwargs).topics)
    add_total = max(1, math.ceil(deficit / RECORDS_PER_TOPIC))
    total = config.topics_cultural + config.topics_general
    add_cultural = (round(add_total * config.topics_cultural / total)
                    if total else 0)
    start = _EXTENSION_BATCH_BASE + epoch * _EXTENSION_BATCH_STRIDE
    taken = set(seen)
    topics: list[Topic] = []
    for category, count in ((CULTURAL, add_cultural),
                            (GENERAL, add_total - add_cultural)):
        if count <= 0:
            continue
        fresh = generate_topics(category, count, gateway, config.run_seed,
                                start_batch=start, **kwargs)
        for topic in fresh.topics:
            norm = normalize_topic(topic.text)
            if norm not in taken:
                taken.add(norm)
                topics.append(topic)
    return topics


def acquire_contexts(topics: list[Topic], gateway, seed: int,
                     policy: ContextPolicy, workers: int,
                     start_index: int = 0, round_no: int = 0
                     ) -> list[tuple[str, ContextDoc]]:
    """One keyed context per topic; keys come from the topic index and
    round, never from completion order."""
    def one(offset: int):
        key = f"t{start_index + offset:04d}-r{round_no:02d}"
        return key, acquire_context(topics[offset], gateway, seed, key,
                                    policy)

    return parallel_map(one, len(topics), workers)


def generate_records(contexts: list[tuple[str, ContextDoc]], gateway,
                     seed: int, settings: TaskSettings, workers: int,
                     tasks: tuple[str, ...] = GENERATION_TASKS
                     ) -> tuple[list[InstructionRecord],
                                list[GenerationFailure]]:
    """Records for every keyed context, in context order. Failed tasks are
    logged and returned; they never abort the stage."""
    def one(i: int):
        key, doc = contexts[i]
        return generate_for_context(doc, gateway, seed, key,
                                    settings=settings, tasks=tasks)

    records: list[InstructionRecord] = []
    failures: list[GenerationFailure] = []
    for recs, fails in parallel_map(one, len(contexts), workers):
        records.extend(recs)
        failures.extend(fails)
    for failure in failures:
        logger.warning("%s failed for %s: %s", failure.task, failure.key,
                       failure.reason)
    return records, failures


def dedup_records(records: list, gateway,
                  config: PipelineConfig) -> DedupResult:
    return dedup_filter(records, gateway, threshold=config.dedup_threshold,
                        mode=config.dedup_mode,
                        index_kind=config.dedup_index_kind,
                        seed=config.run_seed)


# -- stage files, shared with the CLI stage commands -------------------------

def write_topics(topics: list[Topic], path: str) -> str:
    return write_json(path, [{"text": t.text, "category": t.category,
                              "batch_id": t.batch_id} for t in topics])


def read_topics(path: str) -> list[Topic]:
    return [Topic(text=r["text"], category=r["category"],
                  batch_id=r.get("batch_id", 0)) for r in read_json(path)]


def write_contexts(contexts: list[tuple[str, ContextDoc]], path: str) -> str:
    return write_jsonl(path, [{"key": key, **context_to_dict(doc)}
                              for key, doc in contexts])


def read_contexts(path: str) -> list[tuple[str, ContextDoc]]:
    return [(row["key"], context_from_dict(row))
            for _, row in read_jsonl_lines(path)]


class _Run:
    """State threaded through one build in one working directory."""

    def __init__(self, config: PipelineConfig, workdir: str, gateway,
                 stage_hook):
        self.config = config
        self.workdir = workdir
        self.gateway = gateway
        self.hook = stage_hook
        self.workers = config.budget_max_concurrent
        self.checkpoints = _Checkpoints(workdir)
        self.config_digest = config.content_digest()
        self.upstream = "origin"

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def stage(self, name: str, compute, load):
        """Execute or skip one stage.

        compute() -> (value, {filename: sha}); load() rebuilds the value
        from the files of a previously completed stage. The stage hook
        fires only when compute runs. The chain digest handed to the next
        stage covers this stage's actual output hashes, so downstream
        stages are invalidated by changed content, not only by changed
        inputs.
        """
        digest = _chain(name, self.config_digest, self.upstream)
        if self.checkpoints.fresh(name, digest):
            logger.info("stage %s: up to date, skipping", name)
            value = load()
        else:
            if self.hook is not None:
                self.hook(name)
            logger.info("stage %s: running", name)
            try:
                value, outputs = compute()
            except SeedforgeError as exc:
                if not hasattr(exc, "stage"):
                    exc.stage = name
                logger.error("stage %s failed: %s", name, exc)
                raise
            self.checkpoints.record(name, digest, outputs)
        outputs = self.checkpoints.stages[name]["outputs"]
        self.upstream = _chain(name, digest,
                               json.dumps(outputs, sort_keys=True))
        return value

    def file_stage(self, name: str, fname: str, compute, write, read):
        """A stage whose value is saved to one file: write(value, path)
        returns the file's sha256, read(path) loads the value back."""
        path = self.path(fname)

        def run():
            value = compute()
            return value, {fname: write(value, path)}

        return self.stage(name, run, lambda: read(path))

    def topics_stage(self, epoch: int, deficit: int,
                     seen: set[str]) -> list[Topic]:
        name = f"topics-{epoch:02d}"
        return self.file_stage(
            name, f"{name}.json",
            lambda: epoch_topics(self.config, self.gateway, epoch, deficit,
                                 seen),
            write_topics, read_topics)

    def contexts_stage(self, epoch: int, topics: list[Topic],
                       start_index: int, round_no: int
                       ) -> list[tuple[str, ContextDoc]]:
        name = f"contexts-{epoch:02d}"
        return self.file_stage(
            name, f"{name}.jsonl",
            lambda: acquire_contexts(topics, self.gateway,
                                     self.config.run_seed,
                                     context_policy(self.config),
                                     self.workers, start_index, round_no),
            write_contexts, read_contexts)

    def instructions_stage(self, epoch: int,
                           contexts: list[tuple[str, ContextDoc]]) -> list:
        name = f"instructions-{epoch:02d}"
        return self.file_stage(
            name, f"{name}.jsonl",
            lambda: generate_records(contexts, self.gateway,
                                     self.config.run_seed,
                                     task_settings(self.config),
                                     self.workers)[0],
            write_records, read_records)

    def dedup_stage(self, epoch: int, cumulative: list) -> list:
        return self.file_stage(
            f"dedup-{epoch:02d}", f"pool-{epoch:02d}.jsonl",
            lambda: dedup_records(cumulative, self.gateway, self.config).kept,
            write_records, read_records)

    def build_pool(self, max_epochs: int, reroll: bool) -> list:
        """The epoch loop: grow the record pool until it holds
        dataset.size records.

        Each epoch past the first adds new topics sized to the shortfall,
        or, with reroll, runs the first epoch's topics again under a fresh
        round number. The pool is the dedup stage's output, or with dedup
        off the id-sorted union of all records (not written to disk).
        """
        cfg = self.config
        all_records: list = []
        all_topics: list[Topic] = []
        seen: set[str] = set()
        pool: list = []
        for epoch in range(max_epochs + 1):
            deficit = cfg.dataset_size - len(pool)
            if epoch > 0 and deficit <= 0:
                break
            if reroll and epoch > 0:
                topics, start, round_no = all_topics, 0, epoch
            else:
                topics = self.topics_stage(epoch, deficit, seen)
                if epoch > 0 and not topics:
                    continue
                seen.update(normalize_topic(t.text) for t in topics)
                start, round_no = len(all_topics), 0
                all_topics.extend(topics)
            contexts = self.contexts_stage(epoch, topics, start, round_no)
            all_records.extend(self.instructions_stage(epoch, contexts))
            pool = (self.dedup_stage(epoch, all_records)
                    if cfg.dedup_enabled
                    else sorted(all_records, key=lambda r: r.id))
        if len(pool) < cfg.dataset_size:
            raise BuildError(
                f"{len(pool)} records after {max_epochs} topic extensions, "
                f"target {cfg.dataset_size}", achieved=len(pool))
        return pool

    def manifest_stage(self, pool: list) -> DatasetManifest:
        cfg = self.config

        def compute():
            final = truncate_records(pool, cfg.dataset_size, cfg.run_seed,
                                     VARIANT_FULL)
            recipe = Recipe(variant=VARIANT_FULL,
                            topics_cultural=cfg.topics_cultural,
                            topics_general=cfg.topics_general,
                            dedup=cfg.dedup_enabled)
            manifest = finish_manifest(final, recipe, cfg.dataset_size,
                                       cfg.run_seed)
            mpath = self.path(MANIFEST_FILE)
            sha = write_manifest(manifest, mpath,
                                 config_echo=cfg.effective())
            meta_name = MANIFEST_FILE + ".meta.json"
            return manifest, {MANIFEST_FILE: sha,
                              meta_name: file_sha256(self.path(meta_name))}

        def load():
            return read_manifest(self.path(MANIFEST_FILE))

        return self.stage("manifest", compute, load)


def _locked(config: PipelineConfig, workdir: str, gateway, stage_hook,
            body):
    os.makedirs(workdir, exist_ok=True)
    with WorkdirLock(workdir):
        return body(_Run(config, workdir, gateway, stage_hook))


def build_pool(config: PipelineConfig, workdir: str, gateway,
               max_epochs: int = MAX_EPOCHS, reroll: bool = False) -> list:
    """Run the checkpointed generation stages under workdir through the
    caller's gateway and return the record pool (at least
    config.dataset_size records, id order). Raises BuildError when the
    target size is unreachable within max_epochs."""
    return _locked(config, workdir, gateway, None,
                   lambda run: run.build_pool(max_epochs, reroll))


def run_pipeline(config: PipelineConfig, workdir: str,
                 stage_hook=None, max_epochs: int = MAX_EPOCHS
                 ) -> DatasetManifest:
    """Produce the configured dataset under workdir, resuming prior work.

    stage_hook(name) is called before each stage that actually executes;
    skipped stages stay silent. Raises BuildError when the target size is
    unreachable within max_epochs extension rounds.
    """
    return _locked(
        config, workdir, build_gateway(config), stage_hook,
        lambda run: run.manifest_stage(run.build_pool(max_epochs, False)))
