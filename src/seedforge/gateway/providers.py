"""Abstract provider interfaces.

A provider implements one capability (completion, embeddings, translation,
paraphrasing, or wiki access). Implementations must be safe to call from
multiple threads and must not retain references to caller-owned objects.

`remote` distinguishes network-backed providers (subject to rate limiting and
retries) from in-process ones.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from seedforge.gateway.types import EmbeddingVector, GenRequest, WikiArticleRef


class Provider(ABC):
    remote: bool = True

    @property
    @abstractmethod
    def provider_id(self) -> str:
        """Stable identifier used in cache keys, e.g. 'openai:gpt-x'."""


class TextGenerator(Provider):
    @abstractmethod
    def complete(self, request: GenRequest) -> str:
        """Return the completion text for one request.

        Raises:
            RetryableProviderError: transient transport failure.
            ProviderError: permanent failure (auth, bad request).
        """


class Embedder(Provider):
    batch_size: int = 64

    @abstractmethod
    def embed_batch(self, texts: list[str]) -> list[EmbeddingVector]:
        """Embed up to batch_size texts, preserving order, each vector a
        row of one float64 block. The gateway checks the count, the
        dimension and finiteness of the result.

        Raises:
            ProtocolError: the response cannot be decoded.
            RetryableProviderError: transient transport failure.
        """


class Translator(Provider):
    batch_size: int = 64

    @abstractmethod
    def translate_batch(self, texts: list[str], source_lang: str,
                        target_lang: str) -> list[str]:
        """Translate up to batch_size texts in one request, preserving
        order. Never returns a text unchanged for distinct language tags
        (a degraded round trip must stay observable). The gateway checks
        the count and that each translation is non-empty text."""


class Paraphraser(Provider):
    batch_size: int = 64

    @abstractmethod
    def paraphrase_batch(self, texts: list[str], count: int
                         ) -> list[list[str]]:
        """`count` paraphrases of each of up to batch_size texts in one
        request, preserving order, each distinct from its input. The
        gateway checks the counts and the echo."""


class WikiClient(Provider):
    @abstractmethod
    def search(self, query: str, limit: int) -> list[dict]:
        """Full-text search as {"title", "page_id", "rank"} rows, keys in
        that order, provider ranking preserved (rank 0-based). May be empty."""

    @abstractmethod
    def fetch_sections(self, ref: WikiArticleRef) -> list[dict]:
        """One {"body", "section", "provenance"} row per article section,
        keys in that order, lead first: section is the heading ("" for the
        lead) and provenance a JSON object. The gateway checks the rows.

        Raises:
            NotFoundError: the article no longer exists.
        """
