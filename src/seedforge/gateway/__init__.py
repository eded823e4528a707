"""Provider gateway.

One object fronts all external capabilities (completion, embeddings,
translation, paraphrasing, wiki) and applies the operational policy in one
place: a content-addressed response cache, sliding-window rate limiting for
remote providers, bounded retries with exponential backoff and jitter, and a
concurrency cap. Callers see plain typed methods and never deal with
transport concerns.

Thread safety: all public methods may be called concurrently; the semaphore
bounds in-flight provider calls, the limiter and stats take internal locks,
and cache writes are atomic.
"""

from __future__ import annotations

import logging
import random
import threading
import time
from collections import Counter
from typing import Callable

from seedforge import constants
from seedforge.errors import (ConfigError, ProtocolError,
                              RetryableProviderError, ValidationError)
from seedforge.gateway.cache import NullCache, ResponseCache, request_key
from seedforge.gateway.mock import (MockEmbedder, MockParaphraser,
                                    MockTextGenerator, MockTranslator,
                                    MockWikiClient)
from seedforge.gateway.ratelimit import RateLimiter
from seedforge.gateway.types import (EmbeddingVector, GenRequest,
                                     ProviderBudget, WikiArticleRef)

logger = logging.getLogger(__name__)

BACKOFF_BASE_SECONDS = 0.5
BACKOFF_MAX_SECONDS = 30.0


class GatewayStats:
    """Thread-safe request accounting: calls that reached a provider,
    cache hits, and a rough character volume counter."""

    def __init__(self):
        self._lock = threading.Lock()
        self.provider_calls: Counter = Counter()
        self.cache_hits: Counter = Counter()
        self.retries: int = 0
        self.request_chars: int = 0

    def count_call(self, op: str, chars: int = 0) -> None:
        with self._lock:
            self.provider_calls[op] += 1
            self.request_chars += chars

    def count_hit(self, op: str) -> None:
        with self._lock:
            self.cache_hits[op] += 1

    def count_retry(self) -> None:
        with self._lock:
            self.retries += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "provider_calls": dict(self.provider_calls),
                "cache_hits": dict(self.cache_hits),
                "retries": self.retries,
                "request_chars": self.request_chars,
            }


class Gateway:
    def __init__(self, generator, embedder, translator, paraphraser, wiki,
                 budget: ProviderBudget = ProviderBudget(),
                 cache_dir=None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 jitter_rng: random.Random | None = None):
        self.generator = generator
        self.embedder = embedder
        self.translator = translator
        self.paraphraser = paraphraser
        self.wiki = wiki
        self.budget = budget
        self.stats = GatewayStats()
        self._cache = ResponseCache(cache_dir) if cache_dir else NullCache()
        self._limiter = RateLimiter(budget.requests_per_minute, clock, sleep)
        self._semaphore = threading.BoundedSemaphore(budget.max_concurrent)
        self._sleep = sleep
        self._jitter = jitter_rng or random.Random(0)
        self._jitter_lock = threading.Lock()

    @classmethod
    def mock(cls, budget: ProviderBudget | None = None, cache_dir=None,
             embed_dim: int = 256, paraphrase_seed: int = 0) -> "Gateway":
        """Fully offline gateway wired to the deterministic mock providers."""
        return cls(
            generator=MockTextGenerator(),
            embedder=MockEmbedder(dim=embed_dim),
            translator=MockTranslator(),
            paraphraser=MockParaphraser(seed=paraphrase_seed),
            wiki=MockWikiClient(),
            budget=budget or ProviderBudget(requests_per_minute=10**9),
            cache_dir=cache_dir)

    # -- internals ---------------------------------------------------------

    def _call(self, op: str, provider, fn: Callable, chars: int = 0):
        """Run one provider call under the concurrency, rate, and retry
        policy. Rate limiting applies per attempt, remote providers only."""
        attempt = 0
        with self._semaphore:
            while True:
                try:
                    if provider.remote:
                        self._limiter.acquire()
                    result = fn()
                    self.stats.count_call(op, chars)
                    return result
                except RetryableProviderError as exc:
                    attempt += 1
                    self.stats.count_call(op, chars)
                    if attempt > self.budget.retry_limit:
                        logger.error("%s failed after %d attempts: %s",
                                     op, attempt, exc)
                        raise
                    with self._jitter_lock:
                        factor = 0.5 + self._jitter.random()
                    delay = min(BACKOFF_BASE_SECONDS * (2 ** (attempt - 1)),
                                BACKOFF_MAX_SECONDS) * factor
                    logger.warning("%s attempt %d failed (%s), retrying in "
                                   "%.2fs", op, attempt, exc, delay)
                    self.stats.count_retry()
                    self._sleep(delay)

    def _cached(self, op: str, provider, params: dict, fn: Callable,
                chars: int = 0):
        key = request_key(provider.provider_id, op, params)
        hit = self._cache.get(key)
        if hit is not None:
            self.stats.count_hit(op)
            return hit["payload"]
        payload = self._call(op, provider, fn, chars)
        self._cache.put(key, {"payload": payload})
        return payload

    # -- operations --------------------------------------------------------

    def complete(self, request: GenRequest) -> str:
        params = {"prompt": request.prompt,
                  "temperature": request.temperature,
                  "max_tokens": request.max_tokens,
                  "seed": request.seed}
        return self._cached(
            "complete", self.generator, params,
            lambda: self.generator.complete(request),
            chars=len(request.prompt))

    def embed(self, texts: list[str]) -> list[EmbeddingVector]:
        """Embed texts in order, chunked at the provider's batch size."""
        for i, text in enumerate(texts):
            if not text or not text.strip():
                raise ValidationError(f"text #{i} to embed is empty")
        size = max(1, self.embedder.batch_size)
        vectors: list[EmbeddingVector] = []
        for start in range(0, len(texts), size):
            chunk = texts[start:start + size]
            payload = self._cached(
                "embed", self.embedder, {"texts": chunk},
                lambda c=chunk: [list(v.values)
                                 for v in self.embedder.embed_batch(c)],
                chars=sum(len(t) for t in chunk))
            if len(payload) != len(chunk):
                raise ProtocolError(
                    f"embedding count mismatch: {len(payload)} != {len(chunk)}")
            vectors.extend(
                EmbeddingVector(tuple(float(x) for x in values))
                for values in payload)
        dims = {v.dimension for v in vectors}
        if len(dims) > 1:
            raise ProtocolError(f"mixed embedding dimensions {sorted(dims)}")
        return vectors

    @property
    def supports_token_embeddings(self) -> bool:
        return bool(getattr(self.embedder, "supports_token_embeddings", False))

    def translate(self, text: str, source_lang: str, target_lang: str) -> str:
        if not text:
            raise ValidationError("cannot translate empty text")
        if (source_lang, target_lang) not in self.translator.language_pairs:
            raise ConfigError(
                f"language pair {source_lang}->{target_lang} is not "
                f"supported by {self.translator.provider_id}")
        params = {"text": text, "source": source_lang, "target": target_lang}
        result = self._cached(
            "translate", self.translator, params,
            lambda: self.translator.translate(text, source_lang, target_lang),
            chars=len(text))
        if not result:
            raise ProtocolError("translator returned empty text")
        return result

    def paraphrase(self, text: str, count: int,
                   controls: dict | None = None) -> list[str]:
        if not text:
            raise ValidationError("cannot paraphrase empty text")
        if count < 1:
            raise ValidationError("paraphrase count must be >= 1")
        params = {"text": text, "count": count, "controls": controls or {}}
        variants = self._cached(
            "paraphrase", self.paraphraser, params,
            lambda: self.paraphraser.paraphrase(text, count, controls),
            chars=len(text))
        if len(variants) != count:
            raise ProtocolError(
                f"asked for {count} paraphrases, got {len(variants)}")
        if any(v == text for v in variants):
            raise ProtocolError("paraphrase provider echoed the input")
        return list(variants)

    def wiki_search(self, query: str, limit: int = constants.WIKI_TOP_K
                    ) -> list[WikiArticleRef]:
        if not query or not query.strip():
            raise ValidationError("wiki search query must be non-empty")
        if limit < 1:
            raise ValidationError("wiki search limit must be >= 1")
        payload = self._cached(
            "wiki_search", self.wiki, {"query": query, "limit": limit},
            lambda: [
                {"title": r.title, "page_id": r.page_id, "rank": r.rank}
                for r in self.wiki.search(query, limit)
            ],
            chars=len(query))
        return [WikiArticleRef(**row) for row in payload]

    def wiki_fetch_sections(self, ref: WikiArticleRef) -> list:
        # Imported here, not at module top: contexts depends on gateway.types,
        # so a top-level import would be circular.
        from seedforge.contexts import ContextDoc, ContextSource

        payload = self._cached(
            "wiki_sections", self.wiki,
            {"title": ref.title, "page_id": ref.page_id},
            lambda: [
                {"body": d.body, "section": d.source.section,
                 "provenance": d.provenance}
                for d in self.wiki.fetch_sections(ref)
            ])
        return [
            ContextDoc(body=row["body"],
                       source=ContextSource(kind="wiki", title=ref.title,
                                            section=row["section"]),
                       provenance=dict(row["provenance"]))
            for row in payload
        ]
