"""HTTP provider clients, driven in-process through a fake transport.

No sockets are opened: every client gets a FakeTransport that plays back
canned (status, body) replies in order and records each request it sees.
Checks that a provider reply must pass are asserted through a Gateway, the
one entry point callers use, so they hold wherever the check lives.
"""

import json

import numpy as np
import pytest

from seedforge import constants
from seedforge.errors import (ConfigError, NotFoundError, ProtocolError,
                              ProviderError, RetryableProviderError,
                              ValidationError)
from seedforge.gateway import Gateway
from seedforge.gateway.http import (HttpCompletionClient, HttpEmbedder,
                                    HttpParaphraser, HttpResponse,
                                    HttpTranslator, MediaWikiClient,
                                    strip_wikitext)
from seedforge.gateway.types import (GenRequest, ProviderBudget,
                                     WikiArticleRef, WikiSection)

KEY_VAR = "SEEDFORGE_TEST_HTTP_KEY"


class FakeTransport:
    """Replies in order; a reply is (status, body), a non-str body is sent
    as JSON. Records method, url, params, json body, headers and timeout."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.requests = []

    def request(self, method, url, *, params=None, json_body=None,
                headers=None, timeout=60.0):
        self.requests.append({
            "method": method, "url": url, "params": params,
            "json": json_body, "headers": dict(headers or {}),
            "timeout": timeout})
        if not self.replies:
            raise AssertionError(f"unexpected request {method} {url}")
        status, body = self.replies.pop(0)
        text = body if isinstance(body, str) else json.dumps(body)
        return HttpResponse(status=status, body=text)


def _ok(body):
    return (200, body)


def _clients(transport, key_env=""):
    return {
        "openai": HttpCompletionClient(
            "http://gen.test/", "m1", key_env, style="openai",
            transport=transport),
        "anthropic": HttpCompletionClient(
            "http://gen.test", "m2", key_env, style="anthropic",
            transport=transport),
        "embed": HttpEmbedder("http://emb.test/", "e1", key_env,
                              transport=transport),
        "translate": HttpTranslator("http://tr.test/translate",
                                    transport=transport),
        "paraphrase": HttpParaphraser("http://pp.test/paraphrase",
                                      transport=transport),
        "wiki": MediaWikiClient("http://wiki.test/w/api.php",
                                transport=transport),
    }


def _gateway(transport, key_env="", retry_limit=3, sleeps=None,
             max_concurrent=constants.MAX_CONCURRENT, cache_dir=None):
    c = _clients(transport, key_env)
    clock = [0.0]

    def sleep(seconds):
        if sleeps is not None:
            sleeps.append(seconds)
        clock[0] += seconds

    return Gateway(
        generator=c["openai"], embedder=c["embed"],
        translator=c["translate"], paraphraser=c["paraphrase"],
        wiki=c["wiki"],
        budget=ProviderBudget(requests_per_minute=10**9,
                              max_concurrent=max_concurrent,
                              retry_limit=retry_limit),
        cache_dir=cache_dir, clock=lambda: clock[0], sleep=sleep)


# One call per client, each with a well-formed request.
CALLS = {
    "openai": lambda c: c.complete(GenRequest(prompt="p", temperature=0.5)),
    "anthropic": lambda c: c.complete(GenRequest(prompt="p",
                                                 temperature=0.5)),
    "embed": lambda c: c.embed_batch(["a"]),
    "translate": lambda c: c.translate_batch(["x"], "th", "en"),
    "paraphrase": lambda c: c.paraphrase_batch(["x"], 1),
    "wiki": lambda c: c.search("q", 3),
}


class TestStatusMapping:
    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("status", [429, 500, 502, 503])
    def test_rate_limit_and_server_errors_are_retryable(self, name, status):
        transport = FakeTransport((status, "busy"))
        with pytest.raises(RetryableProviderError, match=str(status)):
            CALLS[name](_clients(transport)[name])

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("status", [400, 401, 403, 404])
    def test_other_client_errors_are_fatal(self, name, status):
        transport = FakeTransport((status, "no"))
        with pytest.raises(ProviderError, match=str(status)) as info:
            CALLS[name](_clients(transport)[name])
        assert not isinstance(info.value, RetryableProviderError)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_non_json_body_is_protocol_error(self, name):
        transport = FakeTransport((200, "<html>not json</html>"))
        with pytest.raises(ProtocolError, match="non-JSON"):
            CALLS[name](_clients(transport)[name])


class TestCompletion:
    def test_openai_request_and_reply(self, monkeypatch):
        monkeypatch.setenv(KEY_VAR, "sekrit")
        transport = FakeTransport(
            _ok({"choices": [{"message": {"content": "hello"}}]}),
            _ok({"choices": [{"message": {"content": "again"}}]}))
        client = _clients(transport, KEY_VAR)["openai"]
        assert client.provider_id == "openai:m1"
        out = client.complete(GenRequest(prompt="p1", temperature=0.25,
                                         max_tokens=77, seed=9))
        assert out == "hello"
        assert client.complete(GenRequest(prompt="p2",
                                          temperature=0.5)) == "again"
        first, second = transport.requests
        assert first == {
            "method": "POST", "url": "http://gen.test/v1/chat/completions",
            "params": None,
            "json": {"model": "m1",
                     "messages": [{"role": "user", "content": "p1"}],
                     "temperature": 0.25, "max_tokens": 77, "seed": 9},
            "headers": {"Authorization": "Bearer sekrit"},
            "timeout": 120.0}
        # seed is sent only when the request carries one
        assert "seed" not in second["json"]

    def test_openai_without_credential_sends_no_auth(self):
        transport = FakeTransport(
            _ok({"choices": [{"message": {"content": "x"}}]}))
        _clients(transport)["openai"].complete(
            GenRequest(prompt="p", temperature=0.5))
        assert transport.requests[0]["headers"] == {}

    def test_anthropic_request_and_text_part_join(self, monkeypatch):
        monkeypatch.setenv(KEY_VAR, "sekrit")
        transport = FakeTransport(_ok({"content": [
            {"type": "text", "text": "one "},
            {"type": "tool_use", "id": "t", "input": {}},
            {"type": "text", "text": "two"}]}))
        client = _clients(transport, KEY_VAR)["anthropic"]
        assert client.provider_id == "anthropic:m2"
        out = client.complete(GenRequest(prompt="p", temperature=0.5,
                                         max_tokens=10, seed=3))
        assert out == "one two"
        (request,) = transport.requests
        assert request == {
            "method": "POST", "url": "http://gen.test/v1/messages",
            "params": None,
            "json": {"model": "m2",
                     "messages": [{"role": "user", "content": "p"}],
                     "temperature": 0.5, "max_tokens": 10},
            "headers": {"anthropic-version": "2023-06-01",
                        "x-api-key": "sekrit"},
            "timeout": 120.0}

    def test_anthropic_without_credential(self):
        transport = FakeTransport(_ok({"content": []}))
        out = _clients(transport)["anthropic"].complete(
            GenRequest(prompt="p", temperature=0.5))
        assert out == ""
        assert transport.requests[0]["headers"] == {
            "anthropic-version": "2023-06-01"}

    @pytest.mark.parametrize("name,body", [
        ("openai", {"choices": []}),
        ("openai", {"nothing": 1}),
        ("anthropic", {"content": [{"type": "text"}]}),
        ("anthropic", {"other": 1}),
        ("anthropic", {"content": ["hi"]}),
    ])
    def test_unexpected_shape_is_protocol_error(self, name, body):
        transport = FakeTransport(_ok(body))
        with pytest.raises(ProtocolError, match="completion payload"):
            CALLS[name](_clients(transport)[name])

    def test_unknown_style_is_config_error(self):
        with pytest.raises(ConfigError, match="style"):
            HttpCompletionClient("http://gen.test", "m", "", style="other",
                                 transport=FakeTransport())


class TestEmbedding:
    def test_request_and_index_reordering(self, monkeypatch):
        monkeypatch.setenv(KEY_VAR, "sekrit")
        transport = FakeTransport(_ok({"data": [
            {"index": 2, "embedding": [5, 6]},
            {"index": 0, "embedding": [1, 2]},
            {"index": 1, "embedding": [3.5, 4]}]}))
        client = _clients(transport, KEY_VAR)["embed"]
        assert client.provider_id == "embed:e1"
        vectors = client.embed_batch(["a", "b", "c"])
        for vector, want in zip(vectors, [[1.0, 2.0], [3.5, 4.0], [5.0, 6.0]],
                                strict=True):
            assert vector.values.dtype == np.float64
            assert np.array_equal(vector.values, want)
        (request,) = transport.requests
        assert request == {
            "method": "POST", "url": "http://emb.test/v1/embeddings",
            "params": None, "json": {"model": "e1", "input": ["a", "b", "c"]},
            "headers": {"Authorization": "Bearer sekrit"},
            "timeout": 120.0}

    def test_gateway_returns_rows_in_input_order(self):
        transport = FakeTransport(_ok({"data": [
            {"index": 1, "embedding": [0.0, 1.0]},
            {"index": 0, "embedding": [1.0, 0.0]}]}))
        out = _gateway(transport).embed(["first", "second"])
        assert out.dtype == np.float64
        assert out.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_class_defaults(self):
        client = _clients(FakeTransport())["embed"]
        assert client.batch_size == 64
        assert client.remote is True

    def test_missing_field_is_protocol_error(self):
        transport = FakeTransport(_ok({"data": [{"index": 0}]}))
        with pytest.raises(ProtocolError, match="embedding payload"):
            _clients(transport)["embed"].embed_batch(["a"])

    @pytest.mark.parametrize("data,error", [
        ([{"index": 0, "embedding": [1.0, 2.0]}], ProtocolError),
        ([{"index": 0, "embedding": [1.0, 2.0]},
          {"index": 1, "embedding": [1.0]}], ProtocolError),
        ([{"index": 0, "embedding": [1.0, 2.0]},
          {"index": 1, "embedding": [1.0, float("nan")]}], ValidationError),
        ([{"index": 0, "embedding": [1.0, 2.0]},
          {"index": 1, "embedding": [float("inf"), 0.0]}], ValidationError),
    ])
    def test_bad_batches_never_reach_the_caller(self, data, error):
        transport = FakeTransport(_ok({"data": data}))
        with pytest.raises(error):
            _gateway(transport).embed(["a", "b"])

    @pytest.mark.parametrize("data", [
        # two rows both labelled 0, one of a string and a bool: one text
        # would get another row's vector, coerced to floats
        [{"index": 0, "embedding": [1.0, 0.0]},
         {"index": 0, "embedding": ["0.5", True]}],
        [{"index": 0, "embedding": [1.0, 0.0]},
         {"index": 2, "embedding": [0.5, 1.0]}],
        [{"index": 1, "embedding": [1.0, 0.0]},
         {"index": True, "embedding": [0.5, 1.0]}],
        [{"index": 0, "embedding": [1.0, 0.0]},
         {"index": 1, "embedding": ["0.5", True]}],
        [{"index": 0, "embedding": [1.0, 0.0]},
         {"index": 1, "embedding": [0.5, None]}],
        [{"index": 0, "embedding": [1.0, 0.0]},
         {"index": 1, "embedding": [0.5, 10 ** 400]}],
    ], ids=["repeated_index", "index_gap", "bool_index", "str_and_bool",
            "null_value", "int_beyond_float"])
    def test_mislabelled_or_non_numeric_rows_are_protocol_errors(self, data):
        transport = FakeTransport(_ok({"data": data}))
        with pytest.raises(ProtocolError):
            _gateway(transport).embed(["a", "b"])


class TestTranslator:
    def test_request_and_reply(self):
        transport = FakeTransport(_ok({"translations": ["hello", "world"]}))
        client = _clients(transport)["translate"]
        assert client.provider_id == "translate:http://tr.test/translate"
        assert client.translate_batch(["สวัสดี", "โลก"], "th", "en") == [
            "hello", "world"]
        (request,) = transport.requests
        assert request == {
            "method": "POST", "url": "http://tr.test/translate",
            "params": None,
            "json": {"texts": ["สวัสดี", "โลก"], "source": "th",
                     "target": "en"},
            "headers": {},
            "timeout": 120.0}

    def test_without_credential_sends_no_auth(self, monkeypatch):
        monkeypatch.setenv(KEY_VAR, "sekrit")
        transport = FakeTransport(_ok({"translations": ["hello"]}))
        _clients(transport, KEY_VAR)["translate"].translate_batch(
            ["x"], "th", "en")
        assert transport.requests[0]["headers"] == {}

    def test_gateway_round_trip(self):
        transport = FakeTransport(_ok({"translations": ["hello"]}))
        assert _gateway(transport).translate(["x"], "th", "en") == ["hello"]

    @pytest.mark.parametrize("body", [
        {"translations": [""]}, {"translations": [5]}, {"other": ["x"]}])
    def test_empty_or_missing_translation_is_protocol_error(self, body):
        transport = FakeTransport(_ok(body))
        with pytest.raises(ProtocolError):
            _gateway(transport).translate(["x"], "th", "en")


class TestParaphraser:
    def test_request_and_reply(self, monkeypatch):
        monkeypatch.setenv(KEY_VAR, "sekrit")
        transport = FakeTransport(
            _ok({"paraphrases": [["a", "b"], ["c", "d"]]}),
            _ok({"paraphrases": [["e"]]}))
        client = _clients(transport, KEY_VAR)["paraphrase"]
        assert client.provider_id == "paraphrase:http://pp.test/paraphrase"
        assert client.paraphrase_batch(["x", "y"], 2) == [["a", "b"],
                                                          ["c", "d"]]
        assert client.paraphrase_batch(["z"], 1) == [["e"]]
        first, second = transport.requests
        assert first == {
            "method": "POST", "url": "http://pp.test/paraphrase",
            "params": None,
            "json": {"texts": ["x", "y"], "count": 2},
            "headers": {},
            "timeout": 120.0}
        assert second["json"] == {"texts": ["z"], "count": 1}

    def test_gateway_round_trip(self):
        transport = FakeTransport(_ok({"paraphrases": [["a", "b"]]}))
        assert _gateway(transport).paraphrase(["x"], 2) == [["a", "b"]]

    @pytest.mark.parametrize("body", [
        {"paraphrases": [["a"]]},
        {"paraphrases": [["a", "x"]]},
        {"paraphrases": [["a", ""]]},
        {"paraphrases": [["a", 3]]},
        {"paraphrases": ["ab"]},
        {"other": [["a", "b"]]},
        {"paraphrases": "ab"},
    ])
    def test_bad_replies_are_protocol_errors(self, body):
        transport = FakeTransport(_ok(body))
        with pytest.raises(ProtocolError):
            _gateway(transport).paraphrase(["x"], 2)


def _translated(texts):
    return _ok({"translations": [f"en {t}" for t in texts]})


def _paraphrased(texts, count=2):
    return _ok({"paraphrases": [[f"{t} v{k}" for k in range(count)]
                                for t in texts]})


class TestBatchedContract:
    """Translate and paraphrase requests carry a chunk of at most the
    provider's batch_size texts; every item of a reply is checked before
    the chunk is cached."""

    TEXTS = [f"text {i}" for i in range(130)]

    def test_texts_go_out_in_order_in_chunks_of_batch_size(self):
        chunks = [self.TEXTS[:64], self.TEXTS[64:128], self.TEXTS[128:]]
        transport = FakeTransport(*map(_translated, chunks))
        gateway = _gateway(transport)
        assert gateway.translator.batch_size == 64
        assert gateway.translate(self.TEXTS, "th", "en") == [
            f"en {t}" for t in self.TEXTS]
        assert [r["json"]["texts"] for r in transport.requests] == chunks
        assert [len(r["json"]["texts"]) for r in transport.requests] == [
            64, 64, 2]
        stats = gateway.stats.snapshot()
        assert stats["provider_calls"] == {"translate": 3}
        assert stats["request_chars"] == sum(map(len, self.TEXTS))

    def test_paraphrase_chunks_of_batch_size(self):
        chunks = [self.TEXTS[:64], self.TEXTS[64:128], self.TEXTS[128:]]
        transport = FakeTransport(*map(_paraphrased, chunks))
        gateway = _gateway(transport)
        assert gateway.paraphraser.batch_size == 64
        assert gateway.paraphrase(self.TEXTS, 2) == [
            [f"{t} v0", f"{t} v1"] for t in self.TEXTS]
        assert [r["json"] for r in transport.requests] == [
            {"texts": chunk, "count": 2} for chunk in chunks]

    @pytest.mark.parametrize("op,body", [
        ("translate", {"translations": ["en a"]}),
        ("translate", {"translations": ["en a", "en b", "en c"]}),
        ("translate", {"translations": ["en a", ""]}),
        ("translate", {"translations": ["en a", None]}),
        ("paraphrase", {"paraphrases": [["a v0", "a v1"]]}),
        ("paraphrase", {"paraphrases": [["a v0", "a v1"], ["b v0"]]}),
        ("paraphrase", {"paraphrases": [["a v0", "a v1"],
                                        ["b v0", "b v1", "b v2"]]}),
        ("paraphrase", {"paraphrases": [["a v0", "a v1"], ["b v0", "b"]]}),
    ], ids=["translations_short", "translations_long", "empty_translation",
            "non_string_translation", "paraphrase_lists_short",
            "paraphrases_short", "paraphrases_long", "paraphrase_echo"])
    def test_bad_reply_raises_and_caches_nothing(self, tmp_path, op, body):
        call = {"translate": lambda gw: gw.translate(["a", "b"], "th", "en"),
                "paraphrase": lambda gw: gw.paraphrase(["a", "b"], 2)}[op]
        transport = FakeTransport(_ok(body))
        with pytest.raises(ProtocolError) as info:
            call(_gateway(transport, cache_dir=tmp_path))
        assert info.value.texts == ("a", "b")
        good = (_translated if op == "translate" else _paraphrased)(
            ["a", "b"])
        transport = FakeTransport(good)
        gateway = _gateway(transport, cache_dir=tmp_path)
        call(gateway)
        assert len(transport.requests) == 1
        assert gateway.stats.snapshot()["cache_hits"] == {}

    def test_429_retries_the_whole_chunk_once(self):
        texts = self.TEXTS[:70]
        transport = FakeTransport(_translated(texts[:64]), (429, "slow"),
                                  _translated(texts[64:]))
        sleeps = []
        gateway = _gateway(transport, sleeps=sleeps)
        assert gateway.translate(texts, "th", "en") == [
            f"en {t}" for t in texts]
        assert [r["json"]["texts"] for r in transport.requests] == [
            texts[:64], texts[64:], texts[64:]]
        stats = gateway.stats.snapshot()
        assert stats["retries"] == 1
        assert len(sleeps) == 1
        assert stats["provider_calls"] == {"translate": 3}


def _wiki_error(code):
    return _ok({"error": {"code": code, "info": f"{code} info"}})


class TestMediaWiki:
    def test_search_request_and_ranking(self):
        transport = FakeTransport(_ok({"query": {"search": [
            {"title": "Alpha", "pageid": "11"},
            {"title": "Beta", "pageid": 12}]}}))
        client = _clients(transport)["wiki"]
        assert client.provider_id == "mediawiki:http://wiki.test/w/api.php"
        rows = client.search("ไทย", 2)
        assert rows == [{"title": "Alpha", "page_id": 11, "rank": 0},
                        {"title": "Beta", "page_id": 12, "rank": 1}]
        (request,) = transport.requests
        assert request == {
            "method": "GET", "url": "http://wiki.test/w/api.php",
            "params": {"action": "query", "list": "search",
                       "srsearch": "ไทย", "srlimit": 2, "format": "json"},
            "json": None, "headers": {}, "timeout": 60.0}

    def test_fetch_sections_lead_first_and_empty_dropped(self):
        transport = FakeTransport(
            _ok({"parse": {"sections": [
                {"index": "1", "line": "History"},
                {"line": "Transcluded"},
                {"index": "2", "line": "Empty"}]}}),
            _ok({"parse": {"wikitext": {"*": "'''Lead''' text."}}}),
            _ok({"parse": {"wikitext": {"*": "== History ==\nOld [[a|b]]."}}}),
            _ok({"parse": {"wikitext": {"*": "== Empty ==\n{{stub}}"}}}))
        client = _clients(transport)["wiki"]
        rows = client.fetch_sections(WikiArticleRef("Alpha", 11, 0))
        assert rows == [
            {"body": "Lead text.", "section": "",
             "provenance": {"section_index": 0, "page_id": 11}},
            {"body": "Old b.", "section": "History",
             "provenance": {"section_index": 1, "page_id": 11}},
        ]
        assert [list(r) for r in rows] == [
            ["body", "section", "provenance"]] * 2
        params = [r["params"] for r in transport.requests]
        assert params == [
            {"action": "parse", "pageid": 11, "prop": "sections",
             "format": "json"},
            {"action": "parse", "pageid": 11, "prop": "wikitext",
             "section": 0, "format": "json"},
            {"action": "parse", "pageid": 11, "prop": "wikitext",
             "section": 1, "format": "json"},
            {"action": "parse", "pageid": 11, "prop": "wikitext",
             "section": 2, "format": "json"},
        ]

    def test_gateway_wiki_ops(self):
        transport = FakeTransport(
            _ok({"query": {"search": [{"title": "Alpha", "pageid": 11}]}}),
            _ok({"parse": {"sections": []}}),
            _ok({"parse": {"wikitext": {"*": "Body."}}}))
        gateway = _gateway(transport)
        (ref,) = gateway.wiki_search("q", limit=1)
        assert ref == WikiArticleRef("Alpha", 11, 0)
        (section,) = gateway.wiki_fetch_sections(ref)
        assert section == WikiSection(
            "Body.", "", {"section_index": 0, "page_id": 11})

    @pytest.mark.parametrize("code", ["missingtitle", "nosuchpageid"])
    def test_missing_article_is_not_found(self, code):
        transport = FakeTransport(_wiki_error(code))
        with pytest.raises(NotFoundError, match=f"{code} info"):
            _clients(transport)["wiki"].fetch_sections(
                WikiArticleRef("Gone", 5, 0))

    @pytest.mark.parametrize("code", ["badvalue", "internal_api_error", ""])
    def test_other_api_errors_are_provider_errors(self, code):
        transport = FakeTransport(_wiki_error(code))
        with pytest.raises(ProviderError, match="wiki API error") as info:
            _clients(transport)["wiki"].search("q", 3)
        assert not isinstance(info.value, (NotFoundError,
                                           RetryableProviderError))

    @pytest.mark.parametrize("body", [
        {"query": {}}, {"query": None}, {"parse": {}}])
    def test_unexpected_search_shape_is_protocol_error(self, body):
        transport = FakeTransport(_ok(body))
        with pytest.raises(ProtocolError, match="search payload"):
            _clients(transport)["wiki"].search("q", 3)

    @pytest.mark.parametrize("body", [5, [1], None],
                             ids=["number", "list", "null"])
    def test_reply_that_is_not_an_object_is_protocol_error(self, body):
        transport = FakeTransport(_ok(body))
        with pytest.raises(ProtocolError, match="wiki payload"):
            _clients(transport)["wiki"].search("q", 3)

    def test_error_that_is_not_an_object_is_protocol_error(self):
        transport = FakeTransport(_ok({"error": "boom"}))
        with pytest.raises(ProtocolError, match="error payload"):
            _clients(transport)["wiki"].search("q", 3)


class TestStripWikitext:
    def test_markup_is_removed_and_body_kept(self):
        raw = (
            "{{Infobox {{nested|x}} city}}'''Bangkok''' is the "
            "[[capital city|capital]] of [[Thailand]].<ref name=a/>"
            "<ref>Source, 2001.</ref>\n"
            "<!-- a hidden note -->\n"
            "[[File:Map.png|thumb|A map]]\n"
            "== Geography ==\n"
            "It lies on the ''Chao Phraya'' river "
            "[https://example.org the site] [https://example.org/x].\n"
            "<small>Small print</small>\n")
        assert strip_wikitext(raw) == (
            "Bangkok is the capital of Thailand.\n"
            "It lies on the Chao Phraya river the site .\n"
            "Small print")

    def test_markup_only_is_empty(self):
        assert strip_wikitext("{{stub}}\n== Heading ==\n<!-- x -->") == ""


class TestCredentials:
    BUILDERS = {
        "completion": lambda t: HttpCompletionClient(
            "http://g", "m", KEY_VAR, transport=t),
        "embedding": lambda t: HttpEmbedder(
            "http://e", "m", KEY_VAR, transport=t),
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_named_but_unset_credential_is_config_error(
            self, name, monkeypatch):
        monkeypatch.delenv(KEY_VAR, raising=False)
        with pytest.raises(ConfigError, match=KEY_VAR):
            self.BUILDERS[name](FakeTransport())
        monkeypatch.setenv(KEY_VAR, "")
        with pytest.raises(ConfigError, match=KEY_VAR):
            self.BUILDERS[name](FakeTransport())


class TestRetriesThroughGateway:
    def test_backoff_then_success(self):
        sleeps = []
        transport = FakeTransport((503, "down"), (429, "slow"),
                                  _ok({"translations": ["ok"]}))
        gateway = _gateway(transport, sleeps=sleeps)
        assert gateway.translate(["x"], "th", "en") == ["ok"]
        assert len(transport.requests) == 3
        assert len(sleeps) == 2
        for attempt, delay in enumerate(sleeps):
            base = 0.5 * 2 ** attempt
            assert base * 0.5 <= delay < base * 1.5
        stats = gateway.stats.snapshot()
        assert stats["retries"] == 2
        assert stats["provider_calls"]["translate"] == 3

    def test_retry_budget_exhausted(self):
        sleeps = []
        transport = FakeTransport(*[(500, "down")] * 3)
        gateway = _gateway(transport, retry_limit=2, sleeps=sleeps)
        with pytest.raises(RetryableProviderError, match="500"):
            gateway.embed(["a"])
        assert len(transport.requests) == 3
        assert len(sleeps) == 2

    def test_fatal_status_is_not_retried(self):
        sleeps = []
        transport = FakeTransport((400, "bad request"))
        gateway = _gateway(transport, sleeps=sleeps)
        with pytest.raises(ProviderError, match="400"):
            gateway.complete(GenRequest(prompt="p", temperature=0.5))
        assert len(transport.requests) == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [400, 404])
    def test_fatal_status_is_counted(self, status):
        gateway = _gateway(FakeTransport((status, "no")))
        with pytest.raises(ProviderError, match=str(status)):
            gateway.translate(["xy"], "th", "en")
        stats = gateway.stats.snapshot()
        assert stats["provider_calls"] == {"translate": 1}
        assert stats["request_chars"] == 2
        assert stats["retries"] == 0
