"""Value types passed across the provider boundary.

Everything here is immutable: the requests providers receive and the
replies they or the gateway return. No one mutates shared state through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seedforge import constants
from seedforge.errors import ValidationError


@dataclass(frozen=True)
class GenRequest:
    """A single text-completion request.

    seed is advisory: deterministic providers honor it, remote endpoints pass
    it through when their API supports one.
    """

    prompt: str
    temperature: float
    max_tokens: int = constants.MAX_TOKENS
    seed: int | None = None

    def __post_init__(self):
        if not self.prompt:
            raise ValidationError("prompt must be non-empty")
        if not 0.0 <= self.temperature <= 1.0:
            raise ValidationError(
                f"temperature must be in [0, 1], got {self.temperature}")
        if self.max_tokens <= 0:
            raise ValidationError(
                f"max_tokens must be positive, got {self.max_tokens}")


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """One embedding as a provider returns it: values is a read-only
    float64 row of its batch's block, so the gateway stacks a batch with
    one array copy and checks shape and finiteness there, once. Compare
    vectors by their values, with np.array_equal."""

    values: np.ndarray


@dataclass(frozen=True)
class WikiArticleRef:
    """Search hit returned by a wiki provider. rank is 0-based and mirrors
    the provider's own result ordering."""

    title: str
    page_id: int
    rank: int

    def __post_init__(self):
        if not isinstance(self.title, str):
            raise TypeError("article title must be a string")
        for name in ("page_id", "rank"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer")
        if not self.title:
            raise ValidationError("article title must be non-empty")
        if self.rank < 0:
            raise ValidationError("rank must be >= 0")


@dataclass(frozen=True)
class WikiSection:
    """An article section from a wiki provider; section "" is the lead."""

    body: str
    section: str
    provenance: dict

    def __post_init__(self):
        if not isinstance(self.body, str) or not self.body.strip():
            raise ValidationError("section body must be non-empty")
        if not isinstance(self.section, str):
            raise TypeError("section heading must be a string")
        if not isinstance(self.provenance, dict):
            raise TypeError("section provenance must be an object")


@dataclass(frozen=True)
class ProviderBudget:
    """Operational limits applied to remote providers.

    requests_per_minute bounds provider calls in any sliding 60 s window;
    a wiki sections call is 1 + k HTTP requests (the section list, then
    each of its k sections) under one limiter slot.
    max_concurrent bounds in-flight provider calls, and is the number of
    threads the contexts and instructions stages run on when any provider
    is remote; with local providers only they run inline. retry_limit is
    the number of re-attempts after the first failure of a retryable call.
    """

    requests_per_minute: int = constants.REQUESTS_PER_MINUTE
    max_concurrent: int = constants.MAX_CONCURRENT
    retry_limit: int = constants.RETRY_LIMIT

    def __post_init__(self):
        if self.requests_per_minute < 1:
            raise ValidationError("requests_per_minute must be >= 1")
        if self.max_concurrent < 1:
            raise ValidationError("max_concurrent must be >= 1")
        if self.retry_limit < 0:
            raise ValidationError("retry_limit must be >= 0")
