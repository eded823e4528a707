"""Pipeline configuration.

One flat text file of dotted keys, one assignment per line:

    dataset.size = 50
    topics.cultural = 8
    provider.kind = mock

Values are JSON scalars; bare words are taken as strings. The defaults are
the published pipeline constants, so an empty file is a valid full-scale
configuration. Unknown keys are rejected rather than ignored: a typo that
silently falls back to a default would poison an expensive run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

from seedforge import constants
from seedforge.errors import ConfigError


def _num(lo, hi):
    def check(value):
        if not lo <= value <= hi:
            raise ValueError(f"must be in [{lo}, {hi}]")
    return check


def _positive(value):
    if value < 1:
        raise ValueError("must be >= 1")


def _non_negative(value):
    if value < 0:
        raise ValueError("must be >= 0")


def _threshold(value):
    if not 0.0 < value <= 1.0:
        raise ValueError("must be in (0, 1]")


def _non_empty(value):
    if not value.strip():
        raise ValueError("must be non-empty")


def _choice(*options):
    def check(value):
        if value not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
    return check


def _any(value):
    return None


# key -> (default, type, validator). The types are enforced strictly;
# ints are accepted where floats are expected, never the reverse.
SCHEMA: dict[str, tuple] = {
    "run.seed": (0, int, _non_negative),
    "run.target_language": (constants.TARGET_LANGUAGE, str, _non_empty),
    "run.pivot_language": (constants.PIVOT_LANGUAGE, str, _non_empty),
    "run.culture": (constants.CULTURE, str, _non_empty),
    "dataset.size": (constants.DATASET_SIZE, int, _positive),
    "topics.cultural": (constants.TOPICS_CULTURAL, int, _non_negative),
    "topics.general": (constants.TOPICS_GENERAL, int, _non_negative),
    "topics.per_batch": (constants.TOPICS_PER_BATCH, int, _positive),
    "context.p_wiki": (constants.P_WIKI, float, _num(0.0, 1.0)),
    "context.wiki_top_k": (constants.WIKI_TOP_K, int, _positive),
    "temperature.topics": (constants.TEMPERATURE_TOPIC, float,
                           _num(0.0, 1.0)),
    "temperature.closed_qa": (constants.TEMPERATURE_CLOSED_QA, float,
                              _num(0.0, 1.0)),
    "temperature.summarization": (constants.TEMPERATURE_SUMMARIZATION,
                                  float, _num(0.0, 1.0)),
    "temperature.conversation": (constants.TEMPERATURE_CONVERSATION, float,
                                 _num(0.0, 1.0)),
    "temperature.multiple_choice": (constants.TEMPERATURE_MULTIPLE_CHOICE,
                                    float, _num(0.0, 1.0)),
    "temperature.context": (constants.TEMPERATURE_CONTEXT, float,
                            _num(0.0, 1.0)),
    "tasks.qa_pairs": (constants.QA_PAIRS_PER_CONTEXT, int, _positive),
    "dedup.enabled": (True, bool, _any),
    "dedup.threshold": (constants.DEDUP_THRESHOLD, float, _threshold),
    "dedup.mode": ("keep_first", str, _choice("keep_first", "full_set")),
    "dedup.index_kind": ("auto", str,
                         _choice("auto", "exact", "approximate")),
    "paraphrase.count": (constants.PARAPHRASE_COUNT, int, _positive),
    "budget.requests_per_minute": (constants.REQUESTS_PER_MINUTE, int,
                                   _positive),
    "budget.max_concurrent": (constants.MAX_CONCURRENT, int, _positive),
    "budget.retry_limit": (constants.RETRY_LIMIT, int, _non_negative),
    "cache.dir": ("", str, _any),
    "provider.kind": ("mock", str, _choice("mock", "http")),
    "provider.embed_dim": (256, int, _positive),
    "provider.generator.base_url": ("", str, _any),
    "provider.generator.model": ("", str, _any),
    "provider.generator.api_key_env": ("", str, _any),
    "provider.generator.style": ("openai", str,
                                 _choice("openai", "anthropic")),
    "provider.embedder.base_url": ("", str, _any),
    "provider.embedder.model": ("", str, _any),
    "provider.embedder.api_key_env": ("", str, _any),
    "provider.translator.url": ("", str, _any),
    "provider.paraphraser.url": ("", str, _any),
    "provider.wiki.api_url": ("https://th.wikipedia.org/w/api.php", str,
                              _any),
}

# Keys that do not change what gets generated, only how fast or where it
# is cached; excluded from the content digest so tuning them never
# invalidates checkpoints.
_NON_CONTENT_PREFIXES = ("budget.", "cache.")


def _field_name(key: str) -> str:
    return key.replace(".", "_")


@dataclass(frozen=True)
class PipelineConfig:
    run_seed: int
    run_target_language: str
    run_pivot_language: str
    run_culture: str
    dataset_size: int
    topics_cultural: int
    topics_general: int
    topics_per_batch: int
    context_p_wiki: float
    context_wiki_top_k: int
    temperature_topics: float
    temperature_closed_qa: float
    temperature_summarization: float
    temperature_conversation: float
    temperature_multiple_choice: float
    temperature_context: float
    tasks_qa_pairs: int
    dedup_enabled: bool
    dedup_threshold: float
    dedup_mode: str
    dedup_index_kind: str
    paraphrase_count: int
    budget_requests_per_minute: int
    budget_max_concurrent: int
    budget_retry_limit: int
    cache_dir: str
    provider_kind: str
    provider_embed_dim: int
    provider_generator_base_url: str
    provider_generator_model: str
    provider_generator_api_key_env: str
    provider_generator_style: str
    provider_embedder_base_url: str
    provider_embedder_model: str
    provider_embedder_api_key_env: str
    provider_translator_url: str
    provider_paraphraser_url: str
    provider_wiki_api_url: str

    def effective(self) -> dict:
        """Every key with its effective value, in schema order. This dict
        is echoed into manifests so results carry their full settings."""
        return {key: getattr(self, _field_name(key)) for key in SCHEMA}

    def content_digest(self) -> str:
        """Hash of the settings that influence generated content."""
        payload = {k: v for k, v in self.effective().items()
                   if not k.startswith(_NON_CONTENT_PREFIXES)}
        blob = json.dumps(payload, sort_keys=True, ensure_ascii=False,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


assert {f.name for f in fields(PipelineConfig)} == {
    _field_name(k) for k in SCHEMA}, "config schema and dataclass disagree"


def _parse_value(key: str, raw: str, line_no: int):
    raw = raw.strip()
    if not raw:
        raise ConfigError(f"line {line_no}: {key} has no value")
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        # bare word: treat as a string, e.g. `provider.kind = mock`
        return raw


def _coerce(key: str, value, where: str):
    _, want, validate = SCHEMA[key]
    if want is float and isinstance(value, int) and not isinstance(
            value, bool):
        value = float(value)
    if want is not type(value):
        raise ConfigError(
            f"{where}{key} expects {want.__name__}, "
            f"got {type(value).__name__} ({value!r})")
    try:
        validate(value)
    except ValueError as exc:
        raise ConfigError(f"{where}{key} {exc}") from None
    return value


def _build(values: dict) -> PipelineConfig:
    return PipelineConfig(**{_field_name(k): v for k, v in values.items()})


def with_overrides(config: PipelineConfig, overrides: dict,
                   where: str = "") -> PipelineConfig:
    """config with {dotted key: value} overrides, each coerced and
    validated exactly like a value read from a config file. `where`
    prefixes error messages (e.g. "command line: ")."""
    values = config.effective()
    for key, value in overrides.items():
        if key not in SCHEMA:
            raise ConfigError(f"{where}unknown config key {key!r}")
        values[key] = _coerce(key, value, where)
    return _build(values)


_FIELD_TO_KEY = {_field_name(key): key for key in SCHEMA}
_DEFAULTS = _build({key: spec[0] for key, spec in SCHEMA.items()})


def default_config(**overrides) -> PipelineConfig:
    """The defaults, optionally overridden by field name
    (e.g. dataset_size=50)."""
    return with_overrides(_DEFAULTS, {_FIELD_TO_KEY.get(name, name): value
                                      for name, value in overrides.items()})


def parse_config(text: str) -> PipelineConfig:
    values = _DEFAULTS.effective()
    seen: set[str] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"line {line_no}: expected `key = value`, got "
                f"{stripped[:60]!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {line_no}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        seen.add(key)
        values[key] = _coerce(key, _parse_value(key, raw, line_no),
                              f"line {line_no}: ")
    return _build(values)


def load_config(path: str) -> PipelineConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: {path}: {exc}"
                          ) from None
    return parse_config(text)
