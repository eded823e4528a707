"""Spans recorded from outside the program.

`Tracer.install()` replaces public seedforge functions with wrappers that
open a span on entry and close it on return. A function is wrapped under
every module attribute that holds it, so callers that imported it by
name see the wrapper too. Gateway and response-cache operations are
wrapped on their classes. Pipeline stages are timed from the public
`run_pipeline(stage_hook=...)`: a stage span opens when the hook fires and
closes at the next hook or when the run returns.

A span's parent is the innermost open span on the same thread. A pool
thread has none of its own, so its spans fall back to the innermost span
open on the thread that installed the tracer: the current stage, or the
current ablation pass. Spans stay in memory until `write()`.

What cannot be seen from here: time a provider call waits on the
gateway's concurrency semaphore is inside `Gateway._call`, so it counts
as busy time of the gateway op span, not as waiting.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

from seedforge import ablations as _ablations
from seedforge import cli as _cli
from seedforge import contexts as _contexts
from seedforge import dedup as _dedup
from seedforge import evalreport as _evalreport
from seedforge import instructions as _instructions
from seedforge import metrics as _metrics
from seedforge import pipeline as _pipeline
from seedforge import records as _records
from seedforge import tokenizers as _tokenizers
from seedforge import topics as _topics
from seedforge.gateway import Gateway
from seedforge.gateway.cache import ResponseCache

GATEWAY_OPS = {"complete": "complete", "embed": "embed",
               "wiki_search": "wiki_search",
               "wiki_fetch_sections": "wiki_sections",
               "translate": "translate", "paraphrase": "paraphrase"}
PARSERS = ("parse_qa_pairs", "parse_summary_payload", "parse_conversation",
           "parse_multiple_choice")
METRIC_FNS = ("rouge_n", "rouge_l", "rouge_lsum", "bleu", "chrf", "meteor",
              "squad_f1", "bert_like_score")
STAGE_KINDS = ("topics", "contexts", "instructions", "dedup", "manifest")


class Span:
    __slots__ = ("id", "name", "start", "end", "thread", "parent", "attrs")

    def __init__(self, span_id, name, start, thread, parent):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.thread = thread
        self.parent = parent
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "thread": self.thread,
                "parent": self.parent, **({"attrs": self.attrs}
                                          if self.attrs else {})}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[Span] = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            home = self._home_stack
            parent = home[-1].id if home else None
        span = Span(next(self._ids), name, time.perf_counter(),
                    threading.get_ident(), parent)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call; after(span, args, result)
        may annotate the span once the call has returned."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_everywhere(self, module, fn_name: str, span_name: str,
                         after=None) -> None:
        original = getattr(module, fn_name)
        wrapper = self.wrap(span_name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "seedforge" and not mod_name.startswith(
                    "seedforge."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        wrap = self._wrap_everywhere
        wrap(_topics, "generate_topics", "topics.generate_topics")
        wrap(_contexts, "acquire_context", "contexts.acquire_context",
             _note_context)
        wrap(_instructions, "generate_for_context",
             "instructions.generate_for_context", _note_generation)
        for name in PARSERS:
            wrap(_instructions, name, "instructions.parse")
        wrap(_dedup, "dedup_filter", "dedup.dedup_filter", _note_dedup)
        wrap(_records, "write_records", "records.write_records",
             _note_write)
        wrap(_records, "read_records", "records.read_records")
        wrap(_records, "file_sha256", "records.file_sha256")
        wrap(_ablations, "generate_pass", "ablations.generate_pass")
        wrap(_ablations, "round_trip_translate",
             "ablations.round_trip_translate")
        wrap(_ablations, "translate_record", "ablations.translate_record")
        wrap(_evalreport, "score_pair", "evalreport.score_pair")
        wrap(_evalreport, "wilcoxon_rank_sum", "stats.wilcoxon_rank_sum")
        for name in METRIC_FNS:
            wrap(_metrics, name, f"metrics.{name}")
        for name, fn in list(_tokenizers.TOKENIZERS.items()):
            self._restore.append((_tokenizers.TOKENIZERS, name, fn))
            _tokenizers.TOKENIZERS[name] = self.wrap("tokenizers.tokenize",
                                                     fn)
        for method, op in GATEWAY_OPS.items():
            self._set(Gateway, method,
                      self.wrap(f"gateway.{op}", getattr(Gateway, method),
                                _note_embed if op == "embed" else None))
        self._set(ResponseCache, "get",
                  self.wrap("gateway.cache.get", ResponseCache.get))
        self._set(ResponseCache, "put",
                  self.wrap("gateway.cache.put", ResponseCache.put))
        for module in (_cli, _pipeline):
            if getattr(module, "run_pipeline", None) is not None:
                self._set(module, "run_pipeline",
                          self._staged(getattr(module, "run_pipeline")))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def _staged(self, run_pipeline):
        tracer = self

        @functools.wraps(run_pipeline)
        def wrapper(config, workdir, stage_hook=None, **kwargs):
            span = tracer.open("pipeline.run_pipeline")
            current: list[Span] = []

            def hook(name: str) -> None:
                if current:
                    tracer.close(current.pop())
                stage = tracer.open("pipeline.stage." + name.split("-")[0])
                stage.attrs["stage"] = name
                current.append(stage)
                if stage_hook is not None:
                    stage_hook(name)

            try:
                return run_pipeline(config, workdir, stage_hook=hook,
                                    **kwargs)
            finally:
                if current:
                    tracer.close(current.pop())
                span.attrs["ledger"] = _ledger_stages(workdir)
                tracer.close(span)

        return wrapper

    def write(self, spans: list[Span], path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def _ledger_stages(workdir: str) -> list[str]:
    path = os.path.join(workdir, _pipeline.CHECKPOINT_FILE)
    try:
        with open(path, encoding="utf-8") as handle:
            return sorted(json.load(handle))
    except (OSError, ValueError):
        return []


def _note_context(span, args, doc) -> None:
    span.attrs["wiki"] = doc.source.kind == "wiki"


def _note_generation(span, args, result) -> None:
    records, failures = result
    span.attrs["failures"] = len(failures)
    span.attrs["retries"] = sum(
        1 for r in records if r.provenance.get("attempt") == 1)


def _note_dedup(span, args, result) -> None:
    span.attrs["records_in"] = len(result.kept) + len(result.removed)
    span.attrs["removed"] = len(result.removed)


def _note_write(span, args, digest) -> None:
    span.attrs["bytes"] = os.path.getsize(args[1])


def _note_embed(span, args, vectors) -> None:
    span.attrs["texts"] = len(args[1])


# -- per-layer metrics ------------------------------------------------------

def _covered(span: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals inside span."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children if c.end is not None)
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[Span], *, workers: int, pairs: int,
                  dedup_records: int, ablation_seconds: dict[str, float],
                  gateway_stats: dict, cache_bytes: int,
                  distinct_token_share: float) -> dict[str, float]:
    """Per-layer metrics of one workload iteration from its spans.

    pairs: eval pairs scored in the iteration. dedup_records: final
    records of the builds in which dedup ran. gateway_stats: summed
    `GatewayStats.snapshot()` of the gateways the iteration created.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    by_id = {}
    for span in spans:
        by_name[span.name].append(span)
        by_id[span.id] = span
        if span.parent is not None:
            children[span.parent].append(span)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s.seconds for s in by_name[name])

    def self_time(name):
        return sum(s.seconds - _covered(s, children[s.id])
                   for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def child_time(parent_name, child_name):
        return sum(c.seconds for p in by_name[parent_name]
                   for c in children[p.id] if c.name == child_name)

    def utilization(name):
        parents = {s.parent for s in by_name[name]}
        wall = sum(by_id[p].seconds for p in parents if p in by_id)
        return busy(name) / (wall * workers) if wall else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    m: dict[str, float] = {}
    for kind in STAGE_KINDS:
        m[f"pipeline.stage.{kind}_s"] = busy(f"pipeline.stage.{kind}")
    runs = by_name["pipeline.run_pipeline"]
    stages_run = sum(calls(f"pipeline.stage.{k}") for k in STAGE_KINDS)
    ledger = sum(len(s.attrs.get("ledger", [])) for s in runs)
    m["pipeline.epochs"] = max(
        (sum(1 for st in s.attrs.get("ledger", [])
             if st.startswith("topics-")) for s in runs), default=0)
    m["pipeline.stages_run"] = stages_run
    m["pipeline.stages_skipped"] = ledger - stages_run

    m["topics.generate_topics.calls"] = calls("topics.generate_topics")
    m["topics.generate_topics.busy_s"] = busy("topics.generate_topics")
    ctx = "contexts.acquire_context"
    m[f"{ctx}.calls"] = calls(ctx)
    m[f"{ctx}.busy_s"] = busy(ctx)
    m[f"{ctx}.utilization"] = utilization(ctx)
    m["contexts.wiki_share"] = share(attr_sum(ctx, "wiki"), calls(ctx))
    gen = "instructions.generate_for_context"
    m[f"{gen}.calls"] = calls(gen)
    m[f"{gen}.busy_s"] = busy(gen)
    m[f"{gen}.self_s"] = self_time(gen)
    m[f"{gen}.utilization"] = utilization(gen)
    m["instructions.parse_s"] = busy("instructions.parse")
    m["instructions.failures"] = attr_sum(gen, "failures")
    m["instructions.parse_retries"] = attr_sum(gen, "retries")

    dd = "dedup.dedup_filter"
    m[f"{dd}.calls"] = calls(dd)
    m[f"{dd}.records_in"] = attr_sum(dd, "records_in")
    m[f"{dd}.removed"] = attr_sum(dd, "removed")
    m[f"{dd}.busy_s"] = busy(dd)
    m["dedup.removed_share"] = share(attr_sum(dd, "removed"),
                                     attr_sum(dd, "records_in"))
    m["dedup.embed_s"] = child_time(dd, "gateway.embed")
    m["dedup.scan_s"] = self_time(dd)
    embedded = sum(c.attrs.get("texts", 0) for p in by_name[dd]
                   for c in children[p.id] if c.name == "gateway.embed")
    m["dedup.embedded_per_final_record"] = share(embedded, dedup_records)

    for fn in ("write_records", "read_records", "file_sha256"):
        m[f"records.{fn}.calls"] = calls(f"records.{fn}")
        m[f"records.{fn}.busy_s"] = busy(f"records.{fn}")
    m["records.write_records.bytes"] = attr_sum("records.write_records",
                                                "bytes")

    provider_calls = gateway_stats.get("provider_calls", {})
    cache_hits = gateway_stats.get("cache_hits", {})
    for op in GATEWAY_OPS.values():
        m[f"gateway.{op}.calls"] = calls(f"gateway.{op}")
        m[f"gateway.{op}.busy_s"] = busy(f"gateway.{op}")
        m[f"gateway.{op}.provider_calls"] = provider_calls.get(op, 0)
        m[f"gateway.{op}.cache_hits"] = cache_hits.get(op, 0)
    m["gateway.embed.texts"] = attr_sum("gateway.embed", "texts")
    m["gateway.retries"] = gateway_stats.get("retries", 0)
    for op in ("get", "put"):
        m[f"gateway.cache.{op}.calls"] = calls(f"gateway.cache.{op}")
        m[f"gateway.cache.{op}.busy_s"] = busy(f"gateway.cache.{op}")
    m["gateway.cache.bytes_written"] = cache_bytes

    for variant in ("full", "fluency", "diversity", "culture", "none"):
        m[f"ablations.{variant}_s"] = ablation_seconds.get(variant, 0.0)
    for fn in ("round_trip_translate", "translate_record"):
        m[f"ablations.{fn}.calls"] = calls(f"ablations.{fn}")
        m[f"ablations.{fn}.busy_s"] = busy(f"ablations.{fn}")

    m["evalreport.score_pair.calls"] = calls("evalreport.score_pair")
    m["evalreport.score_pair.busy_s"] = busy("evalreport.score_pair")
    for fn in METRIC_FNS:
        m[f"metrics.{fn}.busy_s"] = busy(f"metrics.{fn}")
    m["metrics.bert_like_score.self_s"] = self_time(
        "metrics.bert_like_score")
    m["tokenizers.calls_per_pair"] = share(calls("tokenizers.tokenize"),
                                           pairs)
    m["tokenizers.busy_s"] = busy("tokenizers.tokenize")
    m["stats.wilcoxon_rank_sum.calls"] = calls("stats.wilcoxon_rank_sum")
    m["stats.wilcoxon_rank_sum.busy_s"] = busy("stats.wilcoxon_rank_sum")
    m["eval.distinct_token_share"] = distinct_token_share
    return m
