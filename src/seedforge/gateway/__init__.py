"""Provider gateway.

One object fronts all external capabilities (completion, embeddings,
translation, paraphrasing, wiki) and applies the operational policy in one
place: a content-addressed response cache, sliding-window rate limiting for
remote providers, bounded retries with exponential backoff and jitter, and a
concurrency cap. The cap is also the stage thread count, `concurrency`, but
only when some provider is remote: in-process providers cannot overlap
under the GIL, so the stages call them inline. Callers see plain typed
methods and never deal with transport concerns. Every reply passes its
op's one check before it is cached or returned, and so does every cache
hit.

Thread safety: all public methods may be called concurrently; the semaphore
bounds in-flight provider attempts (a call waiting out its backoff holds no
slot), the limiter and stats take internal locks, and the response cache
appends each frame under a thread lock and an exclusive flock on its log.
"""

from __future__ import annotations

import logging
import random
import threading
import time
from collections import Counter
from typing import Callable, Iterator

import numpy as np

from seedforge import constants
from seedforge.errors import (ProtocolError, ProviderError,
                              RetryableProviderError, ValidationError)
from seedforge.gateway.cache import ResponseCache, request_key
from seedforge.gateway.mock import (MockEmbedder, MockParaphraser,
                                    MockTextGenerator, MockTranslator,
                                    MockWikiClient)
from seedforge.gateway.ratelimit import RateLimiter
from seedforge.gateway.types import (GenRequest, ProviderBudget,
                                     WikiArticleRef, WikiSection)

logger = logging.getLogger(__name__)

BACKOFF_BASE_SECONDS = 0.5
BACKOFF_MAX_SECONDS = 30.0


def _embedding_rows(payload, count: int) -> np.ndarray:
    """One embedding batch as a checked (count, dimension) float64 array."""
    try:
        block = np.array(payload, dtype=np.float64)
    except (TypeError, ValueError):
        raise ProtocolError(
            "mixed embedding dimensions within one batch") from None
    if block.ndim != 2 or block.shape[1] == 0:
        raise ProtocolError(
            f"embedding batch of shape {block.shape} is not one vector "
            f"per text")
    if len(block) != count:
        raise ProtocolError(f"asked for {count} embeddings, got {len(block)}")
    if not np.isfinite(block).all():
        raise ValidationError("embedding contains a non-finite value")
    return block


def _decoded(decode: Callable, entry: dict):
    """decode(entry["payload"]). A lookup or type error there means the
    reply or the cache entry has the wrong shape: a ProtocolError."""
    try:
        return decode(entry["payload"])
    except (LookupError, TypeError) as exc:
        raise ProtocolError(f"reply of unexpected shape: {exc}") from None


def _completion(payload) -> str:
    if not isinstance(payload, str):
        raise ProtocolError("completion provider returned no text")
    return payload


def _per_text(payload, texts: list[str], what: str) -> list:
    """payload, checked to be a list of one reply per text."""
    if not isinstance(payload, list) or len(payload) != len(texts):
        got = len(payload) if isinstance(payload, list) else "no list"
        raise ProtocolError(f"asked for {what} of {len(texts)} texts, "
                            f"got {got}")
    return payload


def _translations(payload, texts: list[str]) -> list[str]:
    if not all(isinstance(text, str) and text
               for text in _per_text(payload, texts, "translations")):
        raise ProtocolError("translator returned empty text")
    return payload


def _paraphrase_lists(payload, texts: list[str], count: int
                      ) -> list[list[str]]:
    for text, variants in zip(texts,
                              _per_text(payload, texts, "paraphrases")):
        if not isinstance(variants, list) or not all(
                isinstance(v, str) and v for v in variants):
            raise ProtocolError("paraphrase provider returned a bad payload")
        if len(variants) != count:
            raise ProtocolError(
                f"asked for {count} paraphrases, got {len(variants)}")
        if text in variants:
            raise ProtocolError("paraphrase provider echoed the input")
    return payload


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
                 sleep: Callable[[float], None] = time.sleep):
        self.generator = generator
        self.embedder = embedder
        self.translator = translator
        self.paraphraser = paraphraser
        self.wiki = wiki
        self.budget = budget
        self.stats = GatewayStats()
        self._cache = ResponseCache(cache_dir) if cache_dir else None
        self._limiter = RateLimiter(budget.requests_per_minute, clock, sleep)
        self._semaphore = threading.BoundedSemaphore(budget.max_concurrent)
        self._sleep = sleep
        self._jitter = random.Random(0)
        self._jitter_lock = threading.Lock()

    @property
    def concurrency(self) -> int:
        """Worker threads a stage should run its provider calls on:
        budget.max_concurrent when any provider is remote, else 1."""
        providers = (self.generator, self.embedder, self.translator,
                     self.paraphraser, self.wiki)
        if any(provider.remote for provider in providers):
            return self.budget.max_concurrent
        return 1

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
        policy. Rate limiting applies per attempt, remote providers only.
        Each attempt holds a concurrency slot; the backoff sleep does not.
        Every attempt is counted, whether it succeeds or fails."""
        attempt = 0
        while True:
            with self._semaphore:
                if provider.remote:
                    self._limiter.acquire()
                try:
                    return fn()
                except RetryableProviderError as exc:
                    attempt += 1
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
                finally:
                    self.stats.count_call(op, chars)
            self._sleep(delay)

    def _cached(self, op: str, provider, params: dict, fn: Callable,
                decode: Callable, chars: int = 0):
        """decode(payload) of one request, the payload read from the cache
        or fetched by fn. decode checks a payload and turns it into typed
        values; a fresh payload is cached only after it passes, and a
        cached one that fails is requested again and overwritten. A
        decoded array (an embedding batch) is cached as itself, the
        checked float64 block, and decode checks it again on a hit.
        Without a cache no request key is built."""
        if self._cache is None:
            return _decoded(decode,
                            {"payload": self._call(op, provider, fn, chars)})
        key = request_key(provider.provider_id, op, params)
        hit = self._cache.get(key)
        if hit is not None:
            try:
                value = _decoded(decode, hit)
            # ValidationError is a ValueError
            except (ProtocolError, ValueError) as exc:
                logger.warning("cached %s reply %s fails its check (%s); "
                               "requesting it again", op, key[:12], exc)
            else:
                self.stats.count_hit(op)
                return value
        entry = {"payload": self._call(op, provider, fn, chars)}
        value = _decoded(decode, entry)
        self._cache.put(key, {"payload": value}
                        if isinstance(value, np.ndarray) else entry)
        return value

    def _batched(self, op: str, provider, texts: list[str], params: dict,
                 fetch: Callable, decode: Callable) -> Iterator:
        """decode(payload, chunk) of each provider.batch_size chunk of
        texts, in order, after every text is checked to be non-blank.
        Each chunk is one _cached request: its params are `params` plus
        the chunk as "texts", its chars the chunk's length. A
        ProviderError on a chunk carries the chunk as `texts`."""
        for i, text in enumerate(texts):
            if not text or not text.strip():
                raise ValidationError(f"text #{i} to {op} is empty")
        size = max(1, provider.batch_size)
        for start in range(0, len(texts), size):
            chunk = texts[start:start + size]
            try:
                value = self._cached(
                    op, provider, {**params, "texts": chunk},
                    lambda c=chunk: fetch(c),
                    lambda payload, c=chunk: decode(payload, c),
                    chars=sum(len(t) for t in chunk))
            except ProviderError as exc:
                exc.texts = tuple(chunk)
                raise
            yield value

    # -- operations --------------------------------------------------------

    def complete(self, request: GenRequest) -> str:
        params = {"prompt": request.prompt,
                  "temperature": request.temperature,
                  "max_tokens": request.max_tokens,
                  "seed": request.seed}
        return self._cached(
            "complete", self.generator, params,
            lambda: self.generator.complete(request), _completion,
            chars=len(request.prompt))

    def embed_blocks(self, texts: list[str]) -> Iterator[np.ndarray]:
        """Embed texts in order, chunked at the provider's batch size: one
        (rows, dimension) float64 block per batch, yielded as it arrives.
        Each batch is checked once, before it is cached, for its row
        count, one dimension and finite values, and every block has the
        first block's dimension."""
        dim = None
        for block in self._batched(
                "embed", self.embedder, texts, {},
                lambda chunk: [v.values
                               for v in self.embedder.embed_batch(chunk)],
                lambda payload, chunk: _embedding_rows(payload, len(chunk))):
            if dim is not None and block.shape[1] != dim:
                raise ProtocolError(f"mixed embedding dimensions "
                                    f"{sorted({dim, block.shape[1]})}")
            dim = block.shape[1]
            yield block

    def embed(self, texts: list[str]) -> np.ndarray:
        """The blocks of embed_blocks(texts) as one (len(texts), dimension)
        float64 array; (0, 0) for no texts."""
        if not texts:
            return np.empty((0, 0))
        mat, start = None, 0
        for block in self.embed_blocks(texts):
            if mat is None:
                mat = np.empty((len(texts), block.shape[1]))
            mat[start:start + len(block)] = block
            start += len(block)
        return mat

    def translate(self, texts: list[str], source_lang: str,
                  target_lang: str) -> list[str]:
        """Translate texts in order, one request per
        translator.batch_size of them; each reply is checked for one
        non-empty translation per text."""
        return [translation for block in self._batched(
            "translate", self.translator, texts,
            {"source": source_lang, "target": target_lang},
            lambda chunk: self.translator.translate_batch(
                chunk, source_lang, target_lang),
            _translations) for translation in block]

    def paraphrase(self, texts: list[str], count: int) -> list[list[str]]:
        """`count` paraphrases of each text, in order, one request per
        paraphraser.batch_size texts; each reply is checked for `count`
        non-empty variants per text, none of which echoes its text."""
        if count < 1:
            raise ValidationError("paraphrase count must be >= 1")
        return [variants for block in self._batched(
            "paraphrase", self.paraphraser, texts, {"count": count},
            lambda chunk: self.paraphraser.paraphrase_batch(chunk, count),
            lambda payload, chunk: _paraphrase_lists(payload, chunk, count))
            for variants in block]

    def wiki_search(self, query: str, limit: int = constants.WIKI_TOP_K
                    ) -> list[WikiArticleRef]:
        if not query or not query.strip():
            raise ValidationError("wiki search query must be non-empty")
        if limit < 1:
            raise ValidationError("wiki search limit must be >= 1")
        return self._cached(
            "wiki_search", self.wiki, {"query": query, "limit": limit},
            lambda: self.wiki.search(query, limit),
            lambda rows: [WikiArticleRef(**row) for row in rows],
            chars=len(query))

    def wiki_fetch_sections(self, ref: WikiArticleRef) -> list[WikiSection]:
        return self._cached(
            "wiki_sections", self.wiki,
            {"title": ref.title, "page_id": ref.page_id},
            lambda: self.wiki.fetch_sections(ref),
            lambda rows: [WikiSection(**row) for row in rows])
