"""Resumable staged pipeline runner: the one build engine.

A build is unrolled into a linear chain of stages per extension epoch
(topics, contexts, instructions, dedup) plus one final manifest stage.
Each stage persists its outputs under the working directory and records a
digest in checkpoints.json; the digest chains the stage name, the
content-relevant config, and the upstream stage digest, so a rerun skips
exactly the stages whose inputs are unchanged and whose outputs still
verify. Operational settings (budget, cache) do not enter the digest:
changing them never invalidates work.

Every stage kind, from topics to the manifest, is one row of the STAGES
table: its output files, each with its writer and reader. One
`_Run.stage` decides skip-or-run for every stage, records its ledger
entry, and returns one lazy value per output file. A skipped stage's file
is read only when a stage that runs, or the pool, calls its value; the
epoch loop needs only record counts, so a rerun whose stages all verify
parses no stage file.

Each dedup stage embeds, scans and decides only its epoch's new records,
against the records that earlier epochs kept; the earlier decisions stand
(see `dedup.dedup_filter`). A dedup stage writes every removal so far
(removed-NN.json) and the raw embeddings of its epoch's records
(vectors-NN.npy). The embeddings are spooled to a file beside
vectors-NN.npy as they arrive, and the stage's writer only renames it. A
later dedup stage that runs gets both through their lazy values, and the
earlier epochs' ids from the start of each line of their instruction
files, whose records it does not parse; its scan reads only the earlier
rows it compares. The pool is the instruction records minus the latest
removals. JSONL stage files and the manifest are written a chunk of rows
at a time (`records.CHUNK_ROWS`).

The stage bodies (`epoch_topics`, `contexts.acquire_contexts`,
`instructions.generate_records`, `dedup.dedup_filter`) are shared with
the CLI stage commands. `run_pipeline` is the one entry: it builds any
generated VARIANT_TABLE row in a locked `_Run` under the row's settings,
and its manifest stage ends in `ablations.variant_manifest`. `run` is the
`full` row; `ablate` runs the `full`, `fluency` and `diversity` rows here.
Only the CLI imports this module.

Determinism: all randomness is derived from (run.seed, stage path), never
from wall clock or completion order, so a run interrupted at any stage
boundary resumes to a byte-identical manifest.
"""

from __future__ import annotations

import fcntl
import json
import logging
import math
import os
from dataclasses import replace
from hashlib import sha256

from seedforge import constants
from seedforge.ablations import GENERATED, VARIANT_TABLE, variant_manifest
from seedforge.config import PipelineConfig
from seedforge.contexts import (ContextDoc, acquire_contexts,
                                context_from_dict, context_to_dict)
from seedforge.dedup import (Known, Removal, Vectors, dedup_filter,
                             read_removals, read_vectors, write_removals)
from seedforge.errors import (BuildError, ConfigError, LockError,
                              ParseError, SeedforgeError)
from seedforge.gateway import Gateway, ProviderBudget
from seedforge.gateway.http import (HttpCompletionClient, HttpEmbedder,
                                    HttpParaphraser, HttpTranslator,
                                    MediaWikiClient)
from seedforge.instructions import generate_records
from seedforge.manifest import VARIANT_FULL, manifest_files
from seedforge.records import (file_sha256, parsing, read_ids, read_json,
                               read_jsonl_lines, read_records, write_atomic,
                               write_json, write_jsonl, write_records)
from seedforge.topics import (CULTURAL, GENERAL, Topic, generate_topics,
                              normalize_topic, topic_from_dict,
                              topic_to_dict)

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
    translator = HttpTranslator(base_url=config.provider_translator_url)
    paraphraser = HttpParaphraser(base_url=config.provider_paraphraser_url)
    wiki = MediaWikiClient(api_url=config.provider_wiki_api_url)
    return Gateway(generator=generator, embedder=embedder,
                   translator=translator, paraphraser=paraphraser,
                   wiki=wiki, budget=budget, cache_dir=cache_dir)


class WorkdirLock:
    """Single-writer guard on a working directory: an exclusive flock on
    LOCK_FILE, held for the life of the open file descriptor.

    The kernel drops the lock when its holder closes the file or dies, so
    a killed run never wedges the directory, whatever pid its rerun gets.
    The file itself stays in place and its content means nothing; it is
    never read or unlinked, because a process that opened the old file
    could then lock an orphaned inode while another locks a new one.
    Needs POSIX fcntl.
    """

    def __init__(self, workdir: str):
        self.path = os.path.join(workdir, LOCK_FILE)
        self._fd: int | None = None

    def acquire(self) -> None:
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise LockError(
                f"{self.path} is held by a live process; wait for that "
                f"run to finish or stop it") from None
        self._fd = fd

    def release(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

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
                stages = read_json(self.path)
                if not isinstance(stages, dict) or not all(
                        isinstance(entry, dict)
                        and isinstance(entry.get("outputs", {}), dict)
                        for entry in stages.values()):
                    raise ParseError(f"{self.path}: not a stage ledger")
                self.stages = stages
            except ParseError:
                logger.warning("unreadable %s, starting over", self.path)

    def fresh(self, stage: str, digest: str, names: tuple[str, ...]) -> bool:
        """The stage's entry has this digest, names exactly the files
        `names`, and each still has its recorded sha256."""
        entry = self.stages.get(stage)
        if not entry or entry.get("digest") != digest:
            return False
        outputs = entry.get("outputs", {})
        if sorted(outputs) != sorted(names):
            return False
        for name, expected in outputs.items():
            path = os.path.join(self.workdir, name)
            if not os.path.exists(path) or file_sha256(path) != expected:
                return False
        return True

    def record(self, stage: str, digest: str, outputs: dict) -> None:
        self.stages[stage] = {"digest": digest, "outputs": outputs}
        write_json(self.path, self.stages)


def _chain(stage: str, config_digest: str, upstream: str) -> str:
    return sha256(f"{stage}\n{config_digest}\n{upstream}".encode()).hexdigest()


# -- stage bodies and files, shared with the CLI stage commands -------------

def epoch_topics(config: PipelineConfig, gateway, epoch: int = 0,
                 deficit: int = 0,
                 seen: set[str] | frozenset[str] = frozenset()
                 ) -> list[Topic]:
    """Epoch 0: the configured topic counts. Later epochs: enough new
    topics, in the configured category ratio, to cover `deficit` records.
    Cultural topics are collected first, then general ones, against one
    set of normalized keys seeded from `seen`, so no topic repeats across
    categories or epochs and each category gets exactly its count."""
    if epoch == 0:
        cultural, general = config.topics_cultural, config.topics_general
        start = 0
    else:
        add_total = max(1, math.ceil(deficit / RECORDS_PER_TOPIC))
        total = config.topics_cultural + config.topics_general
        cultural = (round(add_total * config.topics_cultural / total)
                    if total else 0)
        general = add_total - cultural
        start = _EXTENSION_BATCH_BASE + epoch * _EXTENSION_BATCH_STRIDE
    taken = set(seen)
    return [topic
            for category, count in ((CULTURAL, cultural), (GENERAL, general))
            for topic in generate_topics(category, count, gateway, config,
                                         taken=taken, start_batch=start)]


def write_topics(topics: list[Topic], path: str) -> str:
    return write_json(path, [topic_to_dict(t) for t in topics])


def read_topics(path: str) -> list[Topic]:
    rows = read_json(path)
    with parsing(path, "a topics file"):
        return [topic_from_dict(row) for row in rows]


def write_contexts(contexts: list[tuple[str, ContextDoc]], path: str) -> str:
    return write_jsonl(path, [{"key": key, **context_to_dict(doc)}
                              for key, doc in contexts])


def read_contexts(path: str) -> list[tuple[str, ContextDoc]]:
    contexts: dict[str, ContextDoc] = {}
    for line_no, row in read_jsonl_lines(path):
        with parsing(path, "a contexts file", line_no):
            if row["key"] in contexts:
                raise ValueError(f"repeated context key {row['key']!r}")
            contexts[row["key"]] = context_from_dict(row)
    return list(contexts.items())


def write_vectors(vectors: Vectors, path: str) -> str:
    """Move a spooled vectors file into place; returns the sha256 it was
    hashed to as it was written. Its rows are not read again."""
    os.replace(vectors.path, path)
    vectors.path = path
    return vectors.sha256


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


# Stage kind -> its output files, each as (name, write(value, path) ->
# sha256, read(path) -> value). "{}" in a name stands for the epoch.
STAGES = {
    "topics": (("topics-{}.json", write_topics, read_topics),),
    "contexts": (("contexts-{}.jsonl", write_contexts, read_contexts),),
    "instructions": (("instructions-{}.jsonl", write_records,
                      read_records),),
    "dedup": (("removed-{}.json", write_removals, read_removals),
              ("vectors-{}.npy", write_vectors, read_vectors)),
    # The records file's value is its chunks, which hash themselves into
    # the metadata as its writer takes them.
    "manifest": ((MANIFEST_FILE,
                  lambda chunks, path: write_atomic(path, chunks), read_bytes),
                 (MANIFEST_FILE + ".meta.json",
                  lambda meta, path: write_json(path, meta), read_json)),
}


class _Lazy:
    """The value of one stage output file: the one the stage computed or,
    when it was skipped, the one read from the file on the first call."""

    def __init__(self, path: str, read, value=None):
        self.path, self._read, self._value = path, read, value

    def __call__(self):
        if self._read is not None:
            self._value, self._read = self._read(self.path), None
        return self._value

    def count(self) -> int:
        """len of the value; an unread JSONL file, whose sha256 the ledger
        has checked, gives its non-blank lines and is not parsed."""
        if self._read is None:
            return len(self._value)
        with open(self.path, "rb") as handle:
            return sum(1 for line in handle if line.strip())

    def ids(self) -> list[str]:
        """The sorted ids of a records value; an unread records file,
        whose sha256 the ledger has checked, gives the id at the start of
        each line and is not parsed."""
        if self._read is None:
            return sorted(r.id for r in self._value)
        return sorted(read_ids(self.path))


class _Run:
    """State threaded through one build in one working directory. Entered,
    it makes the directory, takes its lock and loads its ledger; the lock
    is released on exit, or at once if the ledger fails to load."""

    def __init__(self, config: PipelineConfig, workdir: str, gateway,
                 stage_hook):
        self.config = config
        self.workdir = workdir
        self.gateway = gateway
        self.hook = stage_hook
        self.config_digest = config.content_digest()
        self.upstream = "origin"
        self.lock = WorkdirLock(workdir)

    def __enter__(self) -> "_Run":
        os.makedirs(self.workdir, exist_ok=True)
        self.lock.acquire()
        try:
            self.checkpoints = _Checkpoints(self.workdir)
        except BaseException:
            self.lock.release()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.lock.release()

    def stage(self, name: str, compute) -> list[_Lazy]:
        """Execute or skip the stage `name`: a kind of STAGES, with
        "-NN" for the epoch of an epoch's stage.

        compute() returns one value per output file of the kind, which
        the kind's writers save; a skipped stage's values are read from
        its files only when called. A ledger entry that names other files
        is stale, so a workdir written by a layout with other stage files
        reruns those stages. The stage hook fires only when compute runs;
        a package or OS error inside it or a writer is tagged with the
        stage name. The chain digest handed to the next stage covers this
        stage's actual output hashes, so downstream stages are
        invalidated by changed content, not only by inputs.
        """
        kind, _, epoch = name.partition("-")
        files = [(pattern.format(epoch), write, read)
                 for pattern, write, read in STAGES[kind]]
        paths = [os.path.join(self.workdir, fname) for fname, _, _ in files]
        digest = _chain(name, self.config_digest, self.upstream)
        if self.checkpoints.fresh(name, digest,
                                  tuple(fname for fname, _, _ in files)):
            logger.info("stage %s: up to date, skipping", name)
            values = [_Lazy(path, read)
                      for path, (_, _, read) in zip(paths, files)]
        else:
            if self.hook is not None:
                self.hook(name)
            logger.info("stage %s: running", name)
            try:
                computed = compute()
                self.checkpoints.record(name, digest, {
                    fname: write(value, path) for (fname, write, _), path,
                    value in zip(files, paths, computed, strict=True)})
            except (SeedforgeError, OSError) as exc:
                if not hasattr(exc, "stage"):
                    exc.stage = name
                logger.error("stage %s failed: %s", name, exc)
                raise
            values = [_Lazy(path, None, value)
                      for path, value in zip(paths, computed)]
        outputs = self.checkpoints.stages[name]["outputs"]
        self.upstream = _chain(name, digest,
                               json.dumps(outputs, sort_keys=True))
        return values

    def pool(self, cap: int, dedup: bool):
        """The epoch loop: grow the record pool until it holds
        dataset.size records, and return it as a thunk.

        At most `cap` epochs past the first run. Each adds new topics
        sized to the shortfall when dedup is on; without dedup it runs
        the first epoch's topics again under a fresh round number. The
        pool is the id-sorted union of all records, less the last dedup
        stage's removals; it is not written to disk, and skipped stages'
        files are read only when it or a stage that runs is computed. A
        dedup stage embeds, scans and decides only its epoch's records,
        against the earlier epochs' ids, vectors and removals.
        """
        cfg, gateway = self.config, self.gateway
        topic_sets: list[_Lazy] = []
        batches: list[_Lazy] = []
        vectors: list[_Lazy] = []
        removals: list[Removal] = []
        total = size = 0
        for epoch in range(cap + 1):
            deficit = cfg.dataset_size - size
            if epoch > 0 and deficit <= 0:
                break
            tag = f"-{epoch:02d}"
            if dedup or epoch == 0:
                earlier, round_no = list(topic_sets), 0
                topic_sets += self.stage("topics" + tag, lambda: [
                    epoch_topics(cfg, gateway, epoch, deficit,
                                 {normalize_topic(t.text)
                                  for s in earlier for t in s()})])
            else:
                earlier, round_no = [], epoch
            topics = topic_sets[-1]
            contexts, = self.stage("contexts" + tag, lambda: [
                acquire_contexts(topics(), gateway, cfg,
                                 sum(len(s()) for s in earlier), round_no)])
            batches += self.stage("instructions" + tag, lambda: [
                generate_records(contexts(), gateway, cfg)[0]])
            total += batches[-1].count()
            if dedup:
                removed, vecs = self.stage("dedup" + tag, lambda: self.dedup(
                    batches, [v() for v in vectors], removals, tag))
                vectors.append(vecs)
                removals = removed()
            size = total - len(removals)
        if size < cfg.dataset_size:
            raise BuildError(
                f"{size} records after {cap} topic extensions, "
                f"target {cfg.dataset_size}", achieved=size)
        gone = {r.record_id for r in removals}
        return lambda: sorted((r for batch in batches for r in batch()
                               if r.id not in gone), key=lambda r: r.id)

    def dedup(self, batches: list[_Lazy], vectors: list[Vectors],
              removals: list[Removal], tag: str) -> list:
        """The dedup stage's values: every removal so far and the vectors
        file of the last batch's raw embeddings in id order, given the
        earlier batches' vectors files and removals; only the last batch
        is embedded, scanned and decided. The embeddings are spooled
        beside the stage's vectors file, which its writer renames."""
        known = Known([rid for batch in batches[:-1] for rid in batch.ids()],
                      vectors, removals)
        result = dedup_filter(
            batches[-1](), self.gateway,
            os.path.join(self.workdir, f"vectors{tag}.npy.spool"),
            threshold=self.config.dedup_threshold, known=known)
        return [removals + result.removed, result.vectors]


def run_pipeline(config: PipelineConfig, workdir: str, stage_hook=None,
                 variant: str = VARIANT_FULL) -> str:
    """Build the generated VARIANT_TABLE row `variant` under workdir,
    resuming prior work, and return its records sha256, which a skipped
    manifest stage has checked against the file. `run` is the `full` row.

    The stages run under the row's topic counts (see VariantSpec). The
    epoch loop makes at most MAX_EPOCHS extensions with dedup, else
    ceil(size / general) + 10 re-rolls. The manifest's metadata echoes
    `config`, not the row's settings. stage_hook(name) is called before
    each stage that actually executes; skipped stages stay silent. Raises
    BuildError when the target size is unreachable within the cap.
    """
    spec = VARIANT_TABLE[variant]
    size = config.dataset_size
    cultural, general = spec.topics or (config.topics_cultural,
                                        config.topics_general)
    if spec.topics and spec.dedup:
        cultural, general = (math.ceil(n * size / constants.DATASET_SIZE)
                             for n in spec.topics)
    cap = (MAX_EPOCHS if spec.dedup
           else math.ceil(size / max(1, general)) + 10)
    row = replace(config, topics_cultural=cultural, topics_general=general)
    gateway = build_gateway(row)
    with _Run(row, workdir, gateway, stage_hook) as run:
        pool = run.pool(cap, spec.dedup)
        _, meta = run.stage("manifest", lambda: manifest_files(
            variant_manifest(variant, pool(), (cultural, general),
                             GENERATED, gateway, row),
            config.effective()))
        return meta()["records_sha256"]
