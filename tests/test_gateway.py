"""Gateway policy and mock provider contracts."""

import hashlib
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

import seedforge
from seedforge.errors import (ProtocolError, RetryableProviderError,
                              ValidationError)
from seedforge.gateway import Gateway, GatewayStats
from seedforge.gateway.cache import (JSON_KIND, RESPONSE_LOG, ROWS_KIND,
                                    ResponseCache, request_key)
from seedforge.gateway.mock import (MockEmbedder, MockParaphraser,
                                    MockTranslator)
from seedforge.gateway.ratelimit import RateLimiter
from seedforge.gateway.types import (EmbeddingVector, GenRequest,
                                     ProviderBudget, WikiArticleRef)

from doubles import FlakyProvider, ScriptedTextGenerator


def _cosine(a, b):
    dot = sum(x * y for x, y in zip(a.values, b.values))
    na = math.sqrt(sum(x * x for x in a.values))
    nb = math.sqrt(sum(x * x for x in b.values))
    return dot / (na * nb)


def _reference_vector(text, dim):
    """The mock embedder's rule, one token at a time: each word adds its
    sha256 sign to its sha256 bucket, then the row is L2 normalized."""
    values = [0.0] * dim
    for word in text.split():
        h = int.from_bytes(hashlib.sha256(word.encode("utf-8")).digest()[:8],
                           "big")
        values[(h >> 1) % dim] += 1.0 if h & 1 else -1.0
    norm = sum(v * v for v in values) ** 0.5
    if norm == 0.0:
        values[0] = 1.0
        norm = 1.0
    return tuple(v / norm for v in values)


def _cancelling_text(dim):
    """Two words in one bucket with opposite signs."""
    seen = {}  # (bucket, sign bit) -> word
    for i in itertools.count():
        word = f"w{i}"
        h = int.from_bytes(hashlib.sha256(word.encode()).digest()[:8], "big")
        bucket = (h >> 1) % dim
        if (bucket, 1 - (h & 1)) in seen:
            return f"{seen[bucket, 1 - (h & 1)]} {word}"
        seen[bucket, h & 1] = word


class TestMockProviders:
    def test_translator_tags_target_language(self):
        t = MockTranslator()
        assert t.translate_batch(["x", "y"], "th", "en") == ["en⟨x⟩",
                                                              "en⟨y⟩"]

    def test_round_trip_is_visibly_degraded(self):
        t = MockTranslator()
        (once,) = t.translate_batch(["ข้อความ"], "th", "en")
        (back,) = t.translate_batch([once], "en", "th")
        assert back == "th⟨en⟨ข้อความ⟩⟩"
        assert back != "ข้อความ"

    def test_embedder_identical_text_identical_vector(self):
        e = MockEmbedder(dim=64)
        a, b = e.embed_batch(["สวัสดี ชาวโลก", "สวัสดี ชาวโลก"])
        assert np.array_equal(a.values, b.values)
        # and across instances: no hidden state
        c = MockEmbedder(dim=64).embed_batch(["สวัสดี ชาวโลก"])[0]
        assert np.array_equal(c.values, a.values)

    @pytest.mark.parametrize("dim", [8, 64, 256])
    def test_embedder_matches_the_per_token_rule(self, dim):
        cancelling = _cancelling_text(dim)
        texts = ["สวัสดี ชาวโลก ภาษาไทย", "ภาษาไทย ภาษาไทย ภาษาไทย x",
                 "a b a b a c", cancelling, "สวัสดี", cancelling + " "
                 + cancelling, "  spaced\tout\nwords  ",
                 "𝔘𝔫𝔦 😀 x𝔘ไทย 𝔘𝔫𝔦"]
        assert _reference_vector(cancelling, dim)[0] == 1.0
        got = MockEmbedder(dim=dim).embed_batch(texts)
        for vector, text in zip(got, texts, strict=True):
            assert vector.values.dtype == np.float64
            assert np.array_equal(vector.values,
                                  _reference_vector(text, dim))

    def test_embedder_rejects_a_whitespace_text_in_a_batch(self):
        with pytest.raises(ValidationError, match="whitespace-only"):
            MockEmbedder().embed_batch(["a b", " \t", "c"])
        assert MockEmbedder().embed_batch([]) == []

    def test_embedder_one_word_edit_stays_close(self):
        e = MockEmbedder()
        words = [f"word{i}" for i in range(30)]
        edited = words[:-1] + ["changed"]
        a, b = e.embed_batch([" ".join(words), " ".join(edited)])
        assert 0.9 < _cosine(a, b) < 1.0

    def test_embedder_unrelated_texts_far_apart(self):
        e = MockEmbedder()
        a, b = e.embed_batch(["alpha beta gamma delta",
                              "หนึ่ง สอง สาม สี่"])
        assert abs(_cosine(a, b)) < 0.5

    def test_embedder_vectors_unit_norm(self):
        e = MockEmbedder(dim=32)
        (v,) = e.embed_batch(["a b c"])
        assert math.isclose(sum(x * x for x in v.values), 1.0,
                            rel_tol=1e-9)

    def test_paraphraser_count_and_distinctness(self):
        p = MockParaphraser(seed=1)
        (out,) = p.paraphrase_batch(["hello world"], 4)
        assert len(out) == 4
        assert len(set(out)) == 4
        assert all(v.startswith("hello world ") for v in out)
        assert all(v != "hello world" for v in out)

    def test_paraphraser_seed_changes_variants(self):
        a = MockParaphraser(seed=1).paraphrase_batch(["x"], 2)
        b = MockParaphraser(seed=2).paraphrase_batch(["x"], 2)
        assert a != b
        assert a == MockParaphraser(seed=1).paraphrase_batch(["x"], 2)
        # a text's paraphrases do not depend on the batch it comes in
        assert (MockParaphraser(seed=1).paraphrase_batch(["y", "x"], 2)[1]
                == a[0])


class TestGatewayOperations:
    def test_complete_deterministic_for_same_request(self, gateway):
        req = GenRequest(prompt="tell me something", temperature=0.8,
                         seed=5)
        assert gateway.complete(req) == gateway.complete(req)

    def test_complete_varies_with_seed(self, gateway):
        a = gateway.complete(GenRequest(prompt="p", temperature=0.8, seed=1))
        b = gateway.complete(GenRequest(prompt="p", temperature=0.8, seed=2))
        assert a != b

    def test_embed_preserves_order_across_batches(self, gateway):
        texts = [f"text number {i}" for i in range(150)]
        vectors = gateway.embed(texts)
        assert vectors.shape == (150, 256)
        single = gateway.embed([texts[137]])[0]
        assert vectors[137].tolist() == single.tolist()

    def test_embed_rejects_empty_text(self, gateway):
        with pytest.raises(ValidationError, match="#1"):
            gateway.embed(["ok", "   "])

    def test_translate_rejects_empty_text(self, gateway):
        with pytest.raises(ValidationError):
            gateway.translate(["x", ""], "th", "en")

    def test_paraphrase_count_mismatch_is_protocol_error(self, gateway):
        class Short(MockParaphraser):
            def paraphrase_batch(self, texts, count):
                return super().paraphrase_batch(texts, count - 1)

        gateway.paraphraser = Short()
        with pytest.raises(ProtocolError, match="asked for 3"):
            gateway.paraphrase(["x"], 3)

    def test_paraphrase_echo_is_protocol_error(self, gateway):
        class Echo(MockParaphraser):
            def paraphrase_batch(self, texts, count):
                return [[text] * count for text in texts]

        gateway.paraphraser = Echo()
        with pytest.raises(ProtocolError, match="echoed"):
            gateway.paraphrase(["x"], 2)

    def test_mixed_embedding_dimensions_rejected(self, gateway):
        class Mixed(MockEmbedder):
            def embed_batch(self, texts):
                out = []
                for i, text in enumerate(texts):
                    dim = 8 if i % 2 == 0 else 16
                    out.append(MockEmbedder(dim=dim).embed_batch([text])[0])
                return out

        gateway.embedder = Mixed()
        with pytest.raises(ProtocolError, match="mixed"):
            gateway.embed(["a", "b"])

    def test_wiki_search_validates_arguments(self, gateway):
        with pytest.raises(ValidationError):
            gateway.wiki_search("  ")
        with pytest.raises(ValidationError):
            gateway.wiki_search("ok", limit=0)


class TestRetryPolicy:
    def _gateway_with_flaky_translator(self, failures, retry_limit):
        sleeps = []
        gw = Gateway.mock(budget=ProviderBudget(
            requests_per_minute=10**9, retry_limit=retry_limit))
        gw._sleep = sleeps.append
        gw.translator = FlakyProvider(MockTranslator(), failures=failures)
        return gw, sleeps

    def test_transient_failures_are_retried(self):
        gw, sleeps = self._gateway_with_flaky_translator(
            failures=2, retry_limit=3)
        assert gw.translate(["x"], "th", "en") == ["en⟨x⟩"]
        assert len(sleeps) == 2
        assert gw.stats.snapshot()["retries"] == 2

    def test_retry_budget_exhaustion_raises(self):
        gw, _ = self._gateway_with_flaky_translator(
            failures=10, retry_limit=2)
        with pytest.raises(RetryableProviderError):
            gw.translate(["x"], "th", "en")

    def test_backoff_releases_the_concurrency_slot(self):
        gw = Gateway.mock(budget=ProviderBudget(
            requests_per_minute=10**9, max_concurrent=1, retry_limit=1))
        gw.translator = FlakyProvider(MockTranslator(), failures=1)
        other = []

        def sleep(_delay):
            # Another call during the backoff must get the only slot.
            thread = threading.Thread(target=lambda: other.append(
                gw.complete(GenRequest(prompt="echo:y", temperature=0.1))))
            thread.start()
            thread.join(timeout=5)
            other.append(thread.is_alive())

        gw._sleep = sleep
        assert gw.translate(["x"], "th", "en") == ["en⟨x⟩"]
        assert other == ["y", False]

    def test_backoff_grows_per_attempt(self):
        gw, sleeps = self._gateway_with_flaky_translator(
            failures=3, retry_limit=5)
        gw.translate(["x"], "th", "en")
        # base 0.5 doubling, jittered by a factor in [0.5, 1.5)
        assert len(sleeps) == 3
        for i, delay in enumerate(sleeps):
            base = 0.5 * (2 ** i)
            assert base * 0.5 <= delay < base * 1.5


class TestRateLimiter:
    def test_window_bound_is_exact(self):
        clock = [0.0]
        sleeps = []

        def sleep(s):
            sleeps.append(s)
            clock[0] += s

        limiter = RateLimiter(3, clock=lambda: clock[0], sleep=sleep)
        for _ in range(3):
            limiter.acquire()
        assert limiter.in_window() == 3
        assert sleeps == []
        limiter.acquire()  # fourth must wait for the window to move
        assert sleeps and sleeps[0] == pytest.approx(60.0)

    def test_old_stamps_expire(self):
        clock = [0.0]
        limiter = RateLimiter(2, clock=lambda: clock[0],
                              sleep=lambda s: None)
        limiter.acquire()
        limiter.acquire()
        clock[0] = 61.0
        limiter.acquire()  # no sleep needed: first two expired
        assert limiter.in_window() == 1


LOG_HEADER = struct.Struct("<32s32sBI")  # key, body sha256, kind, length


def log_frames(directory):
    """(hex key, kind, body) of every frame of the response log, read
    independently of ResponseCache. Fails unless the whole log scans
    clean: every frame whole and its body's sha256 right."""
    data = (directory / RESPONSE_LOG).read_bytes()
    frames, offset = [], 0
    while offset < len(data):
        key, digest, kind, length = LOG_HEADER.unpack_from(data, offset)
        body = data[offset + LOG_HEADER.size:offset + LOG_HEADER.size
                    + length]
        assert len(body) == length
        assert hashlib.sha256(body).digest() == digest
        assert kind in (JSON_KIND, ROWS_KIND)
        frames.append((key.hex(), kind, body))
        offset += LOG_HEADER.size + length
    return frames


def append_frame(directory, key, kind, body, digest=None):
    """Append one frame with the given body, and its true sha256 unless
    `digest` is given."""
    with open(directory / RESPONSE_LOG, "ab") as fh:
        fh.write(LOG_HEADER.pack(bytes.fromhex(key),
                                 digest or hashlib.sha256(body).digest(),
                                 kind, len(body)) + body)


class TestCache:
    def test_response_cache_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        key = request_key("prov", "op", {"a": 1, "b": [2, 3]})
        assert cache.get(key) is None
        cache.put(key, {"payload": {"x": "ค่า"}})
        assert cache.get(key) == {"payload": {"x": "ค่า"}}

    def test_request_key_is_order_insensitive(self):
        a = request_key("p", "op", {"a": 1, "b": 2})
        b = request_key("p", "op", {"b": 2, "a": 1})
        assert a == b
        assert a != request_key("p", "op", {"a": 1, "b": 3})

    def test_gateway_cache_short_circuits_provider(self, tmp_path):
        gw = Gateway.mock(cache_dir=tmp_path)
        req = GenRequest(prompt="echo:hello", temperature=0.1, seed=0)
        assert gw.complete(req) == "hello"
        assert gw.complete(req) == "hello"
        stats = gw.stats.snapshot()
        assert stats["provider_calls"]["complete"] == 1
        assert stats["cache_hits"]["complete"] == 1

    def test_no_request_key_without_a_cache(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("request_key built without a cache")

        monkeypatch.setattr("seedforge.gateway.request_key", refuse)
        gw = Gateway.mock()
        assert gw.complete(GenRequest(prompt="echo:hi", temperature=0.1,
                                      seed=0)) == "hi"
        assert gw.embed(["ก ข", "ค"]).shape == (2, 256)
        assert gw.stats.snapshot()["provider_calls"] == {"complete": 1,
                                                         "embed": 1}

    def test_cache_persists_across_gateways(self, tmp_path):
        # Cache keys include the provider id, so the second gateway's
        # generator must present the same identity as the first.
        class Dead(ScriptedTextGenerator):
            @property
            def provider_id(self):
                return "mock:gen"

        gw1 = Gateway.mock(cache_dir=tmp_path)
        gw1.complete(GenRequest(prompt="echo:x", temperature=0.1, seed=0))
        gw2 = Gateway.mock(cache_dir=tmp_path)
        gw2.generator = Dead([])  # raises if actually called
        out = gw2.complete(GenRequest(prompt="echo:x", temperature=0.1,
                                      seed=0))
        assert out == "x"

    def test_concurrent_writers_of_one_key(self, tmp_path):
        cache = ResponseCache(tmp_path)
        keys = [request_key("p", "op", {"k": k}) for k in range(5)]
        errors = []

        def writer(t):
            try:
                for n in range(200):
                    key = keys[n % 5]
                    cache.put(key, {"payload": [key, "ค่า" * 50]})
            except Exception as exc:  # noqa: BLE001 - collected, asserted
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for key in keys:
            assert cache.get(key) == {"payload": [key, "ค่า" * 50]}
        # one log, every frame whole, none interleaved
        assert [p.name for p in tmp_path.iterdir()] == [RESPONSE_LOG]
        frames = log_frames(tmp_path)
        assert len(frames) == 800
        assert {key for key, _, _ in frames} == set(keys)


class BadOnce:
    """Wraps a provider: the first call of `method` returns spoil(reply),
    later calls pass the reply through. Counts the calls of `method`."""

    def __init__(self, inner, method, spoil):
        self._inner = inner
        self._method = method
        self._spoil = spoil
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != self._method:
            return attr

        def wrapper(*args, **kwargs):
            self.calls += 1
            reply = attr(*args, **kwargs)
            return self._spoil(reply) if self.calls == 1 else reply

        return wrapper


ARTICLE = WikiArticleRef("Alpha", 7, 0)

# op[/variant], provider attribute, provider method, how the first reply
# goes bad, the gateway call, its cache params, and a bad payload to plant.
SEARCH = ("wiki", "search")
SEARCH_CALL = (lambda gw: gw.wiki_search("topic", limit=3),
               {"query": "topic", "limit": 3})
SECTIONS = ("wiki", "fetch_sections")
SECTIONS_CALL = (lambda gw: gw.wiki_fetch_sections(ARTICLE),
                 {"title": "Alpha", "page_id": 7})
POISON_CASES = {
    "complete": (
        "generator", "complete", lambda out: None,
        lambda gw: gw.complete(GenRequest(prompt="echo:x", temperature=0.1,
                                          max_tokens=9)),
        {"prompt": "echo:x", "temperature": 0.1, "max_tokens": 9,
         "seed": None}, ["x"]),
    "translate": (
        "translator", "translate_batch", lambda out: [""],
        lambda gw: gw.translate(["x"], "th", "en"),
        {"texts": ["x"], "source": "th", "target": "en"}, [""]),
    "paraphrase": (
        "paraphraser", "paraphrase_batch", lambda out: [out[0][:-1]],
        lambda gw: gw.paraphrase(["x"], 3),
        {"texts": ["x"], "count": 3}, [["x", "y", "z"]]),
    "embed": (
        "embedder", "embed_batch",
        lambda out: out[:-1] + [EmbeddingVector((math.nan,) * 256)],
        lambda gw: gw.embed(["a b", "c d"]).tolist(),
        {"texts": ["a b", "c d"]}, [[1.0, 0.0]]),
    "wiki_search": (
        *SEARCH, lambda rows: [{**rows[0], "title": ""}], *SEARCH_CALL,
        [{"title": "", "page_id": 1, "rank": 0}]),
    "wiki_search/missing_key": (
        *SEARCH, lambda rows: [{"title": r["title"], "rank": r["rank"]}
                               for r in rows], *SEARCH_CALL,
        [{"title": "Alpha", "rank": 0}]),
    "wiki_search/wrong_types": (
        *SEARCH, lambda rows: [{"title": 5, "page_id": "x", "rank": 0}],
        *SEARCH_CALL, [{"title": 5, "page_id": "x", "rank": 0}]),
    "wiki_search/not_an_object": (
        *SEARCH, lambda rows: [list(r.values()) for r in rows],
        *SEARCH_CALL, [["Alpha", 7, 0]]),
    "wiki_sections": (
        *SECTIONS, lambda rows: [{**rows[0], "body": " "}], *SECTIONS_CALL,
        [{"body": "", "section": "", "provenance": {}}]),
    "wiki_sections/missing_key": (
        *SECTIONS, lambda rows: [{"body": r["body"], "section": r["section"]}
                                 for r in rows], *SECTIONS_CALL,
        [{"body": "Text.", "section": ""}]),
    "wiki_sections/not_an_object": (
        *SECTIONS, lambda rows: [r["body"] for r in rows], *SECTIONS_CALL,
        ["Text."]),
    "wiki_sections/heading_not_text": (
        *SECTIONS, lambda rows: [{**rows[0], "section": 5}],
        *SECTIONS_CALL, [{"body": "Text.", "section": 5, "provenance": {}}]),
    "wiki_sections/provenance_not_an_object": (
        *SECTIONS, lambda rows: [{**rows[0], "provenance": 3}],
        *SECTIONS_CALL, [{"body": "Text.", "section": "", "provenance": []}]),
}


class TestCachePoisoning:
    """A reply that fails its check is never cached, and a cached one that
    fails it is requested again."""

    @staticmethod
    def _gateway(tmp_path, attr, provider):
        gw = Gateway.mock(cache_dir=tmp_path)
        setattr(gw, attr, provider)
        return gw

    @pytest.mark.parametrize("case", sorted(POISON_CASES))
    def test_bad_reply_is_requested_again(self, case, tmp_path):
        op = case.split("/")[0]
        attr, method, spoil, call, _, _ = POISON_CASES[case]
        clean = call(Gateway.mock())
        provider = BadOnce(getattr(Gateway.mock(), attr), method, spoil)
        with pytest.raises((ProtocolError, ValidationError)):
            call(self._gateway(tmp_path, attr, provider))
        assert call(self._gateway(tmp_path, attr, provider)) == clean
        assert provider.calls == 2
        # the good reply is the one cached
        gw = self._gateway(tmp_path, attr, provider)
        assert call(gw) == clean
        assert provider.calls == 2
        assert gw.stats.snapshot()["cache_hits"] == {op: 1}

    @pytest.mark.parametrize("case", sorted(POISON_CASES))
    def test_bad_cache_entry_is_overwritten(self, case, tmp_path):
        op = case.split("/")[0]
        attr, method, _, call, params, planted = POISON_CASES[case]
        clean = call(Gateway.mock())
        inner = getattr(Gateway.mock(), attr)
        key = request_key(inner.provider_id, op, params)
        cache = ResponseCache(tmp_path)
        cache.put(key, {"payload": planted})
        provider = BadOnce(inner, method, lambda reply: reply)
        gw = self._gateway(tmp_path, attr, provider)
        assert call(gw) == clean
        assert provider.calls == 1
        stats = gw.stats.snapshot()
        assert stats["provider_calls"] == {op: 1}
        assert stats["cache_hits"] == {}
        payload = cache.get(key)["payload"]
        if isinstance(payload, np.ndarray):  # embed batches are rows frames
            payload = payload.tolist()
        assert payload != planted
        assert call(self._gateway(tmp_path, attr, provider)) == clean
        assert provider.calls == 1

    def test_damaged_entry_shape_is_a_miss(self, tmp_path):
        params = {"texts": ["x"], "source": "th", "target": "en"}
        key = request_key("mock:translate", "translate", params)
        ResponseCache(tmp_path).put(key, {"not_payload": ["en⟨x⟩"]})
        gw = Gateway.mock(cache_dir=tmp_path)
        assert gw.translate(["x"], "th", "en") == ["en⟨x⟩"]
        assert gw.stats.snapshot()["provider_calls"] == {"translate": 1}

    def test_entry_that_is_not_utf8_is_a_miss(self, tmp_path):
        params = {"texts": ["x"], "source": "th", "target": "en"}
        key = request_key("mock:translate", "translate", params)
        append_frame(tmp_path, key, JSON_KIND, b"\xff\xfe{")
        gw = Gateway.mock(cache_dir=tmp_path)
        assert gw.translate(["x"], "th", "en") == ["en⟨x⟩"]
        assert gw.stats.snapshot()["provider_calls"] == {"translate": 1}
        assert ResponseCache(tmp_path).get(key) == {"payload": ["en⟨x⟩"]}


TRANSLATE_X = ({"texts": ["x"], "source": "th", "target": "en"},
               ["en⟨x⟩"])

# Child interpreter: waits for a line on stdin, then appends 500 entries to
# the cache directory argv[1]. Even n are keys every writer shares. Exits 3
# unless its own cache object reads back every key only it wrote.
APPEND_ENTRIES = """
import sys
from seedforge.gateway.cache import ResponseCache, request_key
cache = ResponseCache(sys.argv[1])
name = sys.argv[2]
sys.stdin.readline()
own = {}
for n in range(500):
    key = request_key("p", "op", {"n": n, "by": name if n % 2 else ""})
    entry = {"payload": [name, n, "ค่า" * 200]}
    cache.put(key, entry)
    if n % 2:
        own[key] = entry
sys.exit(0 if all(cache.get(k) == e for k, e in own.items()) else 3)
"""


def _rows_body(rows, dim, values):
    return struct.pack("<QQ", rows, dim) + np.asarray(
        values, dtype="<f8").tobytes()


class TestResponseLog:
    """One append-only log per cache directory: torn and damaged tails,
    writers sharing a directory, and embeddings stored as float64 rows."""

    @staticmethod
    def _translate(gw, text):
        return gw.translate([text], "th", "en")

    @pytest.mark.parametrize("keep", [LOG_HEADER.size - 5,
                                      LOG_HEADER.size + 3])
    def test_torn_last_frame_is_dropped_and_requested_again(self, tmp_path,
                                                            keep):
        gw = Gateway.mock(cache_dir=tmp_path)
        self._translate(gw, "a")
        self._translate(gw, "b")
        log = tmp_path / RESPONSE_LOG
        last = LOG_HEADER.size + len(log_frames(tmp_path)[-1][2])
        os.truncate(log, log.stat().st_size - last + keep)
        gw = Gateway.mock(cache_dir=tmp_path)
        assert self._translate(gw, "a") == ["en⟨a⟩"]
        assert self._translate(gw, "b") == ["en⟨b⟩"]
        stats = gw.stats.snapshot()
        assert stats["provider_calls"] == {"translate": 1}
        assert stats["cache_hits"] == {"translate": 1}
        assert len(log_frames(tmp_path)) == 2

    def test_body_with_a_bad_sha256_is_a_miss(self, tmp_path):
        params, reply = TRANSLATE_X
        key = request_key("mock:translate", "translate", params)
        append_frame(tmp_path, key, JSON_KIND,
                     b'{"payload": "forged"}', digest=bytes(32))
        gw = Gateway.mock(cache_dir=tmp_path)
        assert self._translate(gw, "x") == reply
        assert gw.stats.snapshot()["provider_calls"] == {"translate": 1}
        # the frame appended in the damaged one's place wins
        good = json.dumps({"payload": reply}, ensure_ascii=False).encode()
        assert log_frames(tmp_path) == [(key, JSON_KIND, good)]
        gw = Gateway.mock(cache_dir=tmp_path)
        assert self._translate(gw, "x") == reply
        assert gw.stats.snapshot()["provider_calls"] == {}

    def test_a_damaged_frame_ends_the_log(self, tmp_path):
        keys = [request_key("p", "op", {"n": n}) for n in range(4)]
        cache = ResponseCache(tmp_path)
        cache.put(keys[0], {"payload": 0})
        append_frame(tmp_path, keys[1], JSON_KIND, b'{"payload": 1}',
                     digest=bytes(32))
        append_frame(tmp_path, keys[2], JSON_KIND, b'{"payload": 2}')
        cache = ResponseCache(tmp_path)
        assert [cache.get(key) for key in keys[:3]] == [
            {"payload": 0}, None, None]
        cache.put(keys[3], {"payload": 3})
        assert [key for key, _, _ in log_frames(tmp_path)] == [
            keys[0], keys[3]]

    def test_two_caches_on_one_directory_see_each_others_appends(
            self, tmp_path):
        one, two = (request_key("p", "op", {"n": n}) for n in (1, 2))
        a, b = ResponseCache(tmp_path), ResponseCache(tmp_path)
        a.put(one, {"payload": "one"})
        assert b.get(one) == {"payload": "one"}
        b.put(two, {"payload": "two"})
        b.put(one, {"payload": "uno"})
        assert a.get(two) == {"payload": "two"}
        assert a.get(one) == {"payload": "uno"}  # the later frame wins
        a.put(two, {"payload": "dos"})
        assert b.get(two) == {"payload": "dos"}
        assert len(log_frames(tmp_path)) == 4

    def test_two_processes_append_to_one_directory(self, tmp_path):
        src = os.path.dirname(os.path.dirname(seedforge.__file__))
        names = ("left", "right")
        children = [subprocess.Popen(
            [sys.executable, "-c", APPEND_ENTRIES, str(tmp_path), name],
            stdin=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src}) for name in names]
        try:
            for child in children:
                child.stdin.write("go\n")
                child.stdin.flush()
        finally:
            for child in children:
                child.stdin.close()
                child.wait(timeout=60)
        assert [child.returncode for child in children] == [0, 0]
        assert len(log_frames(tmp_path)) == 1000
        cache = ResponseCache(tmp_path)
        for name in names:
            for n in range(500):
                key = request_key("p", "op",
                                  {"n": n, "by": name if n % 2 else ""})
                writer, number, _ = cache.get(key)["payload"]
                assert number == n
                assert writer == name or n % 2 == 0

    def test_embed_hit_is_bit_identical_to_the_cold_call(self, tmp_path):
        texts = [f"word{i} other{i % 7} คำ{i % 3}" for i in range(150)]
        cold = Gateway.mock(cache_dir=tmp_path).embed(texts)
        assert [kind for _, kind, _ in log_frames(tmp_path)] == [
            ROWS_KIND] * 3
        gw = Gateway.mock(cache_dir=tmp_path)
        warm = gw.embed(texts)
        stats = gw.stats.snapshot()
        assert stats["provider_calls"] == {}
        assert stats["cache_hits"] == {"embed": 3}
        assert (warm.dtype, warm.shape) == (cold.dtype, cold.shape)
        assert warm.tobytes() == cold.tobytes()
        assert warm.flags.writeable

    @pytest.mark.parametrize("body", [
        _rows_body(2, 2, [[1.0, 0.0], [0.0, math.nan]]),
        _rows_body(1, 2, [[1.0, 0.0]]),
        _rows_body(2, 0, []),
        _rows_body(2, 2, [[1.0, 0.0]]),
        b"\x02",
    ], ids=["non_finite", "row_count", "no_dimension", "short", "no_shape"])
    def test_rows_frame_that_fails_its_check_is_a_miss(self, tmp_path, body):
        texts = ["a b", "c d"]
        key = request_key("mock:embed:256", "embed", {"texts": texts})
        append_frame(tmp_path, key, ROWS_KIND, body)
        gw = Gateway.mock(cache_dir=tmp_path)
        assert gw.embed(texts).tolist() == Gateway.mock().embed(
            texts).tolist()
        assert gw.stats.snapshot()["provider_calls"] == {"embed": 1}

    def test_per_key_files_of_an_old_cache_are_not_read(self, tmp_path):
        params, reply = TRANSLATE_X
        key = request_key("mock:translate", "translate", params)
        (tmp_path / f"{key}.json").write_text('{"payload": "en⟨old⟩"}')
        gw = Gateway.mock(cache_dir=tmp_path)
        assert self._translate(gw, "x") == reply
        assert gw.stats.snapshot()["provider_calls"] == {"translate": 1}


class TestConcurrency:
    def test_semaphore_bounds_in_flight_calls(self):
        active = []
        peak = []
        lock = threading.Lock()

        class SlowEmbedder(MockEmbedder):
            def embed_batch(self, texts):
                with lock:
                    active.append(1)
                    peak.append(len(active))
                out = super().embed_batch(texts)
                with lock:
                    active.pop()
                return out

        gw = Gateway.mock(budget=ProviderBudget(
            requests_per_minute=10**9, max_concurrent=2))
        gw.embedder = SlowEmbedder()
        threads = [threading.Thread(
            target=lambda i=i: gw.embed([f"text {i}"])) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert max(peak) <= 2

    def test_stats_are_thread_safe(self):
        stats = GatewayStats()
        threads = [threading.Thread(
            target=lambda: [stats.count_call("op", 1) for _ in range(500)])
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.snapshot()["provider_calls"]["op"] == 4000
