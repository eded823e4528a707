"""Network-backed providers.

All providers share one tiny transport protocol so tests can substitute
canned responses. Status handling is uniform: 429 and 5xx raise
RetryableProviderError (the gateway retries those), other non-2xx raise
ProviderError, and malformed success payloads raise ProtocolError.

Credentials are read from environment variables named in the config; the
variable name travels through the code, the secret itself never does.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from seedforge.errors import (ConfigError, NotFoundError, ProtocolError,
                              ProviderError, RetryableProviderError)
from seedforge.gateway.providers import (Embedder, Paraphraser, TextGenerator,
                                         Translator, WikiClient)
from seedforge.gateway.types import EmbeddingVector, GenRequest, WikiArticleRef


@dataclass(frozen=True)
class HttpResponse:
    status: int
    body: str


class HttpTransport(Protocol):
    def request(self, method: str, url: str, *, params: dict | None = None,
                json_body: dict | None = None, headers: dict | None = None,
                timeout: float = 60.0) -> HttpResponse: ...


class RequestsTransport:
    """Default transport, a thin wrapper over requests.Session."""

    def __init__(self):
        import requests
        self._session = requests.Session()
        self._requests = requests

    def request(self, method: str, url: str, *, params: dict | None = None,
                json_body: dict | None = None, headers: dict | None = None,
                timeout: float = 60.0) -> HttpResponse:
        try:
            response = self._session.request(
                method, url, params=params, json=json_body, headers=headers,
                timeout=timeout)
        except self._requests.RequestException as exc:
            raise RetryableProviderError(f"transport failure: {exc}")
        return HttpResponse(status=response.status_code, body=response.text)


@contextmanager
def _reading(what: str):
    """Raise a lookup, type, value, attribute or overflow error as a
    ProtocolError on `what`."""
    try:
        yield
    except (LookupError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise ProtocolError(f"unexpected {what} payload shape: {exc}")


class _HttpClient:
    """The one request path of every HTTP provider: credential lookup,
    the Bearer header, the transport call, status mapping and JSON body
    decoding. `what` names the capability in error messages."""

    def __init__(self, what: str, api_key_env: str,
                 transport: HttpTransport | None, timeout: float = 120.0):
        self._what = what
        # No api_key_env means the endpoint is unauthenticated (local
        # OpenAI-compatible servers); a named but unset variable is an error.
        self._api_key = os.environ.get(api_key_env, "") if api_key_env else ""
        if api_key_env and not self._api_key:
            raise ConfigError(
                f"{what} provider requires credential in environment "
                f"variable {api_key_env!r}, which is empty or unset")
        self._transport = transport or RequestsTransport()
        self.timeout = timeout

    def _request(self, method: str, url: str, *, params: dict | None = None,
                 json_body: dict | None = None, headers: dict | None = None):
        """Send one request and return its decoded JSON body. headers
        defaults to Bearer auth when a credential is configured."""
        if headers is None:
            headers = ({"Authorization": f"Bearer {self._api_key}"}
                       if self._api_key else {})
        response = self._transport.request(
            method, url, params=params, json_body=json_body, headers=headers,
            timeout=self.timeout)
        status = response.status
        if status == 429 or status >= 500:
            raise RetryableProviderError(
                f"{self._what} endpoint returned HTTP {status}")
        if not 200 <= status < 300:
            raise ProviderError(f"{self._what} endpoint returned HTTP "
                                f"{status}: {response.body[:200]}")
        try:
            return json.loads(response.body)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"provider returned non-JSON body: {exc}")


class HttpCompletionClient(_HttpClient, TextGenerator):
    """Chat-completion client for OpenAI-style or Anthropic-style endpoints.

    style="openai": POST {base}/v1/chat/completions, Bearer auth.
    style="anthropic": POST {base}/v1/messages, x-api-key auth.
    """

    def __init__(self, base_url: str, model: str, api_key_env: str,
                 style: str = "openai",
                 transport: HttpTransport | None = None):
        if style not in ("openai", "anthropic"):
            raise ConfigError(f"unknown completion endpoint style {style!r}")
        super().__init__("completion", api_key_env, transport)
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.style = style

    @property
    def provider_id(self) -> str:
        return f"{self.style}:{self.model}"

    def complete(self, request: GenRequest) -> str:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if self.style == "openai":
            if request.seed is not None:
                body["seed"] = request.seed
            payload = self._request(
                "POST", f"{self.base_url}/v1/chat/completions",
                json_body=body)
        else:
            headers = {"anthropic-version": "2023-06-01"}
            if self._api_key:
                headers["x-api-key"] = self._api_key
            payload = self._request("POST", f"{self.base_url}/v1/messages",
                                    json_body=body, headers=headers)
        with _reading("completion"):
            if self.style == "openai":
                return payload["choices"][0]["message"]["content"]
            parts = payload["content"]
            return "".join(p["text"] for p in parts if p.get("type") == "text")


class HttpEmbedder(_HttpClient, Embedder):
    """OpenAI-style embeddings endpoint: POST {base}/v1/embeddings.

    Decodes the reply into one float64 block, whose rows must carry the
    indexes 0..n-1, hold only JSON numbers and share one length; the
    gateway checks the row count, the dimension and finiteness of every
    batch before caching it."""

    def __init__(self, base_url: str, model: str, api_key_env: str,
                 transport: HttpTransport | None = None):
        super().__init__("embedding", api_key_env, transport)
        self.base_url = base_url.rstrip("/")
        self.model = model

    @property
    def provider_id(self) -> str:
        return f"embed:{self.model}"

    def embed_batch(self, texts: list[str]) -> list[EmbeddingVector]:
        payload = self._request(
            "POST", f"{self.base_url}/v1/embeddings",
            json_body={"model": self.model, "input": texts})
        with _reading("embedding"):
            rows = sorted(payload["data"], key=lambda r: r["index"])
            indexes = [r["index"] for r in rows]
            if (indexes != list(range(len(rows)))
                    or not all(type(i) is int for i in indexes)):
                raise ProtocolError(
                    f"embedding rows are indexed {indexes}, not 0..n-1")
            vectors = [r["embedding"] for r in rows]
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for vector in vectors for x in vector):
                raise ProtocolError("embedding holds a value that is not a "
                                    "number")
            block = np.array(vectors, dtype=np.float64)
        block.flags.writeable = False
        return [EmbeddingVector(row) for row in block]


class HttpTranslator(_HttpClient, Translator):
    """Generic JSON batch translation endpoint, called without auth.

    Expects POST {base_url} with {"texts": [...], "source", "target"}
    returning {"translations": [...]}, one per text in order; adjust
    server-side to match, the contract is documented in the README.
    """

    def __init__(self, base_url: str,
                 transport: HttpTransport | None = None):
        super().__init__("translation", "", transport)
        self.base_url = base_url

    @property
    def provider_id(self) -> str:
        return f"translate:{self.base_url}"

    def translate_batch(self, texts: list[str], source_lang: str,
                        target_lang: str) -> list[str]:
        payload = self._request(
            "POST", self.base_url,
            json_body={"texts": texts, "source": source_lang,
                       "target": target_lang})
        with _reading("translation"):
            return payload["translations"]


class HttpParaphraser(_HttpClient, Paraphraser):
    """Generic JSON batch paraphrase endpoint, called without auth: POST
    {base_url} with {"texts": [...], "count"} returning
    {"paraphrases": [[...], ...]}, one list per text in order."""

    def __init__(self, base_url: str,
                 transport: HttpTransport | None = None):
        super().__init__("paraphrase", "", transport)
        self.base_url = base_url

    @property
    def provider_id(self) -> str:
        return f"paraphrase:{self.base_url}"

    def paraphrase_batch(self, texts: list[str], count: int
                         ) -> list[list[str]]:
        payload = self._request(
            "POST", self.base_url, json_body={"texts": texts, "count": count})
        with _reading("paraphrase"):
            return payload["paraphrases"]


_WIKITEXT_RULES = (
    (re.compile(r"<ref[^>/]*/>"), ""),
    (re.compile(r"<ref[^>]*>.*?</ref>", re.DOTALL), ""),
    (re.compile(r"<!--.*?-->", re.DOTALL), ""),
    (re.compile(r"\[\[(?:[Ff]ile|[Ii]mage):[^\]]*\]\]"), ""),
    (re.compile(r"\[\[[^|\]]*\|([^\]]*)\]\]"), r"\1"),
    (re.compile(r"\[\[([^\]]*)\]\]"), r"\1"),
    (re.compile(r"\[https?://\S*\s+([^\]]*)\]"), r"\1"),
    (re.compile(r"\[https?://\S*\]"), ""),
    (re.compile(r"'{2,}"), ""),
    (re.compile(r"^=+.*?=+\s*$", re.MULTILINE), ""),
    (re.compile(r"<[^>]+>"), ""),
)

_TEMPLATE_RE = re.compile(r"\{\{[^{}]*\}\}")


def strip_wikitext(text: str) -> str:
    """Best-effort markup removal: templates, links, refs, emphasis.

    Nothing beyond markup stripping happens here; body text is preserved.
    """
    previous = None
    while previous != text:
        previous = text
        text = _TEMPLATE_RE.sub("", text)
    for pattern, replacement in _WIKITEXT_RULES:
        text = pattern.sub(replacement, text)
    lines = [line.strip() for line in text.splitlines()]
    return "\n".join(line for line in lines if line).strip()


class MediaWikiClient(_HttpClient, WikiClient):
    """MediaWiki Action API client (list=search and action=parse).

    Section splitting follows the API's own section index: index 0 is the
    lead, each further section is fetched by its index, and sections whose
    stripped body is empty are dropped.
    """

    def __init__(self, api_url: str, transport: HttpTransport | None = None):
        super().__init__("wiki", "", transport, timeout=60.0)
        self.api_url = api_url

    @property
    def provider_id(self) -> str:
        return f"mediawiki:{self.api_url}"

    def _get(self, params: dict) -> dict:
        payload = self._request("GET", self.api_url,
                                params={**params, "format": "json"})
        if not isinstance(payload, dict):
            raise ProtocolError(f"unexpected wiki payload shape: "
                                f"{type(payload).__name__}, not an object")
        if "error" in payload:
            with _reading("error"):
                info = payload["error"].get("info", "unknown error")
                code = payload["error"].get("code", "")
            if code in ("missingtitle", "nosuchpageid"):
                raise NotFoundError(f"wiki article not found: {info}")
            raise ProviderError(f"wiki API error {code}: {info}")
        return payload

    def search(self, query: str, limit: int) -> list[dict]:
        payload = self._get({
            "action": "query", "list": "search", "srsearch": query,
            "srlimit": limit,
        })
        with _reading("search"):
            return [{"title": h["title"], "page_id": int(h["pageid"]),
                     "rank": i}
                    for i, h in enumerate(payload["query"]["search"])]

    def fetch_sections(self, ref: WikiArticleRef) -> list[dict]:
        payload = self._get({
            "action": "parse", "pageid": ref.page_id, "prop": "sections",
        })
        with _reading("sections"):
            listed = payload["parse"]["sections"]
        plan: list[tuple[int, str]] = [(0, "")]
        for entry in listed:
            try:
                index = int(entry["index"])
            except (KeyError, TypeError, ValueError):
                continue  # interwiki-transcluded sections have no index
            plan.append((index, str(entry.get("line", ""))))
        rows = []
        for index, heading in plan:
            payload = self._get({"action": "parse", "pageid": ref.page_id,
                                 "prop": "wikitext", "section": index})
            with _reading("wikitext"):
                body = strip_wikitext(payload["parse"]["wikitext"]["*"])
            if body:
                rows.append({"body": body, "section": heading, "provenance": {
                    "section_index": index, "page_id": ref.page_id}})
        return rows
