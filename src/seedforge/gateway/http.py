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
import logging
import os
import re
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from seedforge.contexts import WIKI, ContextDoc, ContextSource
from seedforge.errors import (ConfigError, NotFoundError, ProtocolError,
                              ProviderError, RetryableProviderError,
                              ValidationError)
from seedforge.gateway.providers import (Embedder, Paraphraser, TextGenerator,
                                         Translator, WikiClient)
from seedforge.gateway.types import EmbeddingVector, GenRequest, WikiArticleRef

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class HttpResponse:
    status: int
    body: str

    def json(self):
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"provider returned non-JSON body: {exc}")


class HttpTransport(Protocol):
    def request(self, method: str, url: str, *, params: dict | None = None,
                json_body: dict | None = None, headers: dict | None = None,
                timeout: float = 60.0) -> HttpResponse: ...


class RequestsTransport:
    """Default transport, a thin wrapper over requests.Session."""

    def __init__(self, session=None):
        import requests
        self._session = session or requests.Session()
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


def _check_status(response: HttpResponse, what: str) -> None:
    if response.status == 429 or response.status >= 500:
        raise RetryableProviderError(
            f"{what} returned HTTP {response.status}")
    if not 200 <= response.status < 300:
        raise ProviderError(
            f"{what} returned HTTP {response.status}: {response.body[:200]}")


def _require_env(var_name: str, what: str) -> str:
    value = os.environ.get(var_name, "")
    if not value:
        raise ConfigError(
            f"{what} requires credential in environment variable "
            f"{var_name!r}, which is empty or unset")
    return value


class HttpCompletionClient(TextGenerator):
    """Chat-completion client for OpenAI-style or Anthropic-style endpoints.

    style="openai": POST {base}/v1/chat/completions, Bearer auth.
    style="anthropic": POST {base}/v1/messages, x-api-key auth.
    """

    def __init__(self, base_url: str, model: str, api_key_env: str,
                 style: str = "openai", transport: HttpTransport | None = None,
                 timeout: float = 120.0):
        if style not in ("openai", "anthropic"):
            raise ConfigError(f"unknown completion endpoint style {style!r}")
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.style = style
        self.timeout = timeout
        # No api_key_env means the endpoint is unauthenticated (local
        # OpenAI-compatible servers); a named but unset variable is an error.
        self._api_key = (_require_env(api_key_env, "completion provider")
                         if api_key_env else "")
        self._transport = transport or RequestsTransport()

    @property
    def provider_id(self) -> str:
        return f"{self.style}:{self.model}"

    def complete(self, request: GenRequest) -> str:
        if self.style == "openai":
            url = f"{self.base_url}/v1/chat/completions"
            headers = ({"Authorization": f"Bearer {self._api_key}"}
                       if self._api_key else {})
            body = {
                "model": self.model,
                "messages": [{"role": "user", "content": request.prompt}],
                "temperature": request.temperature,
                "max_tokens": request.max_tokens,
            }
            if request.seed is not None:
                body["seed"] = request.seed
        else:
            url = f"{self.base_url}/v1/messages"
            headers = {"anthropic-version": "2023-06-01"}
            if self._api_key:
                headers["x-api-key"] = self._api_key
            body = {
                "model": self.model,
                "messages": [{"role": "user", "content": request.prompt}],
                "temperature": request.temperature,
                "max_tokens": request.max_tokens,
            }
        response = self._transport.request(
            "POST", url, json_body=body, headers=headers,
            timeout=self.timeout)
        _check_status(response, "completion endpoint")
        payload = response.json()
        try:
            if self.style == "openai":
                return payload["choices"][0]["message"]["content"]
            parts = payload["content"]
            return "".join(p["text"] for p in parts if p.get("type") == "text")
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"unexpected completion payload shape: {exc}")


class HttpEmbedder(Embedder):
    """OpenAI-style embeddings endpoint: POST {base}/v1/embeddings."""

    def __init__(self, base_url: str, model: str, api_key_env: str,
                 batch_size: int = 64, token_embeddings: bool = True,
                 transport: HttpTransport | None = None,
                 timeout: float = 120.0):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.batch_size = batch_size
        self.supports_token_embeddings = token_embeddings
        self.timeout = timeout
        self._api_key = (_require_env(api_key_env, "embedding provider")
                         if api_key_env else "")
        self._transport = transport or RequestsTransport()
        self._dimension: int | None = None

    @property
    def provider_id(self) -> str:
        return f"embed:{self.model}"

    @property
    def dimension(self) -> int:
        if self._dimension is None:
            raise ProtocolError("embedding dimension unknown before first call")
        return self._dimension

    def embed_batch(self, texts: list[str]) -> list[EmbeddingVector]:
        headers = ({"Authorization": f"Bearer {self._api_key}"}
                   if self._api_key else {})
        response = self._transport.request(
            "POST", f"{self.base_url}/v1/embeddings",
            json_body={"model": self.model, "input": texts},
            headers=headers,
            timeout=self.timeout)
        _check_status(response, "embedding endpoint")
        payload = response.json()
        try:
            rows = sorted(payload["data"], key=lambda r: r["index"])
            vectors = [EmbeddingVector(tuple(float(x) for x in r["embedding"]))
                       for r in rows]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"unexpected embedding payload shape: {exc}")
        if len(vectors) != len(texts):
            raise ProtocolError(
                f"asked for {len(texts)} embeddings, got {len(vectors)}")
        dims = {v.dimension for v in vectors}
        if len(dims) > 1:
            raise ProtocolError(f"mixed embedding dimensions {sorted(dims)}")
        # Checked here, not only in the gateway, so a bad response is
        # never written to the response cache.
        if not np.isfinite([v.values for v in vectors]).all():
            raise ValidationError("embedding contains a non-finite value")
        if vectors:
            if self._dimension is None:
                self._dimension = vectors[0].dimension
            elif self._dimension != vectors[0].dimension:
                raise ProtocolError(
                    f"embedding dimension changed from {self._dimension} "
                    f"to {vectors[0].dimension}")
        return vectors


class HttpTranslator(Translator):
    """Generic JSON translation endpoint.

    Expects POST {base_url} with {"text", "source", "target"} returning
    {"translation": "..."}; adjust server-side to match, the contract is
    documented in the README.
    """

    def __init__(self, base_url: str, api_key_env: str | None = None,
                 pairs: frozenset[tuple[str, str]] = frozenset(
                     {("th", "en"), ("en", "th")}),
                 transport: HttpTransport | None = None,
                 timeout: float = 120.0):
        self.base_url = base_url
        self.timeout = timeout
        self._pairs = pairs
        self._api_key = (_require_env(api_key_env, "translation provider")
                         if api_key_env else None)
        self._transport = transport or RequestsTransport()

    @property
    def provider_id(self) -> str:
        return f"translate:{self.base_url}"

    @property
    def language_pairs(self) -> frozenset[tuple[str, str]]:
        return self._pairs

    def translate(self, text: str, source_lang: str, target_lang: str) -> str:
        headers = {}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        response = self._transport.request(
            "POST", self.base_url,
            json_body={"text": text, "source": source_lang,
                       "target": target_lang},
            headers=headers, timeout=self.timeout)
        _check_status(response, "translation endpoint")
        payload = response.json()
        translation = payload.get("translation")
        if not isinstance(translation, str) or not translation:
            raise ProtocolError("translation endpoint returned no text")
        return translation


class HttpParaphraser(Paraphraser):
    """Generic JSON paraphrase endpoint: POST {base_url} with
    {"text", "count", "controls"} returning {"paraphrases": [...]}."""

    def __init__(self, base_url: str, api_key_env: str | None = None,
                 transport: HttpTransport | None = None,
                 timeout: float = 120.0):
        self.base_url = base_url
        self.timeout = timeout
        self._api_key = (_require_env(api_key_env, "paraphrase provider")
                         if api_key_env else None)
        self._transport = transport or RequestsTransport()

    @property
    def provider_id(self) -> str:
        return f"paraphrase:{self.base_url}"

    def paraphrase(self, text: str, count: int,
                   controls: dict | None = None) -> list[str]:
        headers = {}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        response = self._transport.request(
            "POST", self.base_url,
            json_body={"text": text, "count": count,
                       "controls": controls or {}},
            headers=headers, timeout=self.timeout)
        _check_status(response, "paraphrase endpoint")
        payload = response.json()
        variants = payload.get("paraphrases")
        if not isinstance(variants, list) or not all(
                isinstance(v, str) and v for v in variants):
            raise ProtocolError("paraphrase endpoint returned a bad payload")
        return variants


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


class MediaWikiClient(WikiClient):
    """MediaWiki Action API client (list=search and action=parse).

    Section splitting follows the API's own section index: index 0 is the
    lead, each further section is fetched by its index, and sections whose
    stripped body is empty are dropped.
    """

    def __init__(self, api_url: str,
                 transport: HttpTransport | None = None,
                 timeout: float = 60.0):
        self.api_url = api_url
        self.timeout = timeout
        self._transport = transport or RequestsTransport()

    @property
    def provider_id(self) -> str:
        return f"mediawiki:{self.api_url}"

    def _get(self, params: dict) -> dict:
        response = self._transport.request(
            "GET", self.api_url, params={**params, "format": "json"},
            timeout=self.timeout)
        _check_status(response, "wiki endpoint")
        payload = response.json()
        if "error" in payload:
            info = payload["error"].get("info", "unknown error")
            code = payload["error"].get("code", "")
            if code in ("missingtitle", "nosuchpageid"):
                raise NotFoundError(f"wiki article not found: {info}")
            raise ProviderError(f"wiki API error {code}: {info}")
        return payload

    def search(self, query: str, limit: int) -> list[WikiArticleRef]:
        if not query.strip():
            raise ValidationError("wiki search query must be non-empty")
        payload = self._get({
            "action": "query", "list": "search", "srsearch": query,
            "srlimit": limit,
        })
        try:
            hits = payload["query"]["search"]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"unexpected search payload shape: {exc}")
        return [
            WikiArticleRef(title=h["title"], page_id=int(h["pageid"]),
                           rank=i)
            for i, h in enumerate(hits)
        ]

    def _section_wikitext(self, page_id: int, index: int) -> str:
        payload = self._get({
            "action": "parse", "pageid": page_id, "prop": "wikitext",
            "section": index,
        })
        try:
            return payload["parse"]["wikitext"]["*"]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"unexpected wikitext payload shape: {exc}")

    def fetch_sections(self, ref: WikiArticleRef) -> list[ContextDoc]:
        payload = self._get({
            "action": "parse", "pageid": ref.page_id, "prop": "sections",
        })
        try:
            listed = payload["parse"]["sections"]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"unexpected sections payload shape: {exc}")
        plan: list[tuple[int, str]] = [(0, "")]
        for entry in listed:
            try:
                index = int(entry["index"])
            except (KeyError, TypeError, ValueError):
                continue  # interwiki-transcluded sections have no index
            plan.append((index, str(entry.get("line", ""))))
        docs = []
        for index, heading in plan:
            body = strip_wikitext(self._section_wikitext(ref.page_id, index))
            if not body:
                continue
            docs.append(ContextDoc(
                body=body,
                source=ContextSource(kind=WIKI, title=ref.title,
                                     section=heading),
                provenance={"section_index": index, "page_id": ref.page_id}))
        return docs
