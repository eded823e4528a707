"""Exception taxonomy shared across the pipeline.

Every error raised on purpose by this package derives from SeedforgeError so
callers can catch one base type. The CLI maps subtypes to exit codes:
ConfigError -> 2, ProviderError -> 3, BuildError -> 4, anything else -> 1.
"""

from __future__ import annotations


class SeedforgeError(Exception):
    """Base class for all package errors."""


class ConfigError(SeedforgeError):
    """Bad or missing configuration: unknown keys, out-of-range values,
    missing credentials, unsupported language pairs."""


class ProviderError(SeedforgeError):
    """A provider call failed in a way that is not a local bug.

    `texts` holds the texts of the batch request that failed, when the
    failed request carried a batch (the gateway sets it)."""

    texts: tuple[str, ...] = ()


class RetryableProviderError(ProviderError):
    """Transient transport failure (timeouts, 5xx, 429). Eligible for retry."""


class ProtocolError(ProviderError):
    """The provider answered, but the payload violates its own contract,
    e.g. mixed embedding dimensions or a paraphrase shortfall."""


class NotFoundError(ProviderError):
    """A referenced remote object no longer exists (deleted wiki article)."""


class ParseError(SeedforgeError):
    """Model output could not be turned into a structured value.

    Carries the raw text so failure logs stay debuggable.
    """

    def __init__(self, message: str, raw: str = ""):
        super().__init__(message)
        self.raw = raw


class ValidationError(SeedforgeError, ValueError):
    """A value violates a domain invariant (empty field, bad range,
    ordinal wording in a shuffled-choice question, zero vector, ...)."""


class GenerationError(SeedforgeError):
    """Instruction or topic generation failed after its retry budget."""


class GenerationExhaustedError(GenerationError):
    """Generation gave up before reaching the requested count.

    `collected` reports how many items were obtained.
    """

    def __init__(self, message: str, collected: int = 0):
        super().__init__(message)
        self.collected = collected


class BuildError(SeedforgeError):
    """A dataset build could not reach its target size or recipe.

    `achieved` reports the record count at failure time, when known.
    """

    def __init__(self, message: str, achieved: int | None = None):
        super().__init__(message)
        self.achieved = achieved


class DegenerateTestError(SeedforgeError):
    """A statistical test was asked to compare samples with zero variance."""


class AlignmentError(SeedforgeError):
    """Prediction and reference sets do not share the same example ids.

    `system` names the system whose predictions do not match.
    """

    def __init__(self, message: str, system: str):
        super().__init__(message)
        self.system = system


class LockError(SeedforgeError):
    """Another pipeline run holds this working directory."""
