"""Topic acquisition.

Topics are short free-form phrases produced by the completion provider in two
categories: "general" (anything at all) and "cultural" (anchored to the
target culture through a persona preamble). Batches are requested at high
temperature, parsed leniently, and deduplicated case-insensitively until the
requested count is reached.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from seedforge import constants
from seedforge.errors import (GenerationExhaustedError, ParseError,
                              ValidationError)
from seedforge.gateway.types import GenRequest
from seedforge.parsing import extract_string_list
from seedforge.seeding import derive_seed

logger = logging.getLogger(__name__)

GENERAL = "general"
CULTURAL = "cultural"
CATEGORIES = (GENERAL, CULTURAL)

# The tail is shared verbatim between both category prompts.
_TOPIC_PROMPT_TAIL = (
    "Each topic should be a short phrase or sentence. Ensure your output is "
    "in the format of a list of strings, where each string is a topic. Your "
    "output should be one line in the aforementioned format without anything "
    "else."
)

_GENERAL_LEAD = (
    "Please generate {count} completely random topics. These can be about "
    "absolutely anything from everyday conversation, advice, random "
    "thoughts, mathematics, science, history, philosophy, etc. "
)

_CULTURAL_PERSONA = (
    "You are a native {culture} person with expert knowledge of {culture} "
    "culture, history, language, and customs. Ensure that everything you "
    "act, do, say, and generate matches with this fact. "
)

# "such traditions" (not "such as") is deliberate; it reproduces the prompt
# the generation recipe was tuned with.
_CULTURAL_LEAD = (
    "Please generate {count} completely random topics relating to your "
    "culture. These can be about anything related to your culture such "
    "traditions, history, food, language, etc. "
)


@dataclass(frozen=True)
class Topic:
    text: str
    category: str
    batch_id: int = 0

    def __post_init__(self):
        if not self.text or not self.text.strip():
            raise ValidationError("topic text must be non-empty")
        if self.category not in CATEGORIES:
            raise ValidationError(f"unknown topic category {self.category!r}")


@dataclass(frozen=True)
class TopicSet:
    """Merged, deduplicated topics."""

    topics: tuple[Topic, ...]

    def by_category(self, category: str) -> list[Topic]:
        return [t for t in self.topics if t.category == category]


def render_topic_prompt(category: str,
                        count: int = constants.TOPICS_PER_BATCH,
                        culture: str = constants.CULTURE) -> str:
    """Build the batch prompt for one category.

    Defaults reproduce the recipe prompts byte for byte; count and culture
    are parameters so configs can deviate knowingly.
    """
    if category == GENERAL:
        return _GENERAL_LEAD.format(count=count) + _TOPIC_PROMPT_TAIL
    if category == CULTURAL:
        return (_CULTURAL_PERSONA.format(culture=culture)
                + _CULTURAL_LEAD.format(count=count)
                + _TOPIC_PROMPT_TAIL)
    raise ValidationError(f"unknown topic category {category!r}")


def parse_topic_list(raw: str) -> list[str]:
    """Extract topic strings from raw model output.

    Tolerates surrounding prose and either quote style; raises ParseError
    (carrying the raw text) when no bracketed list of strings is present.
    """
    return extract_string_list(raw)


def normalize_topic(text: str) -> str:
    """Dedup key: case-folded with internal whitespace collapsed."""
    return " ".join(text.split()).casefold()


def dedup_topics(topics: list[Topic]) -> list[Topic]:
    """Drop duplicate topics, keeping the first occurrence.

    Duplicates are detected on the normalized text across all categories;
    a collision between categories is logged, not an error.
    """
    kept: list[Topic] = []
    seen: dict[str, Topic] = {}
    for topic in topics:
        key = normalize_topic(topic.text)
        first = seen.get(key)
        if first is None:
            seen[key] = topic
            kept.append(topic)
            continue
        if first.category != topic.category:
            logger.warning(
                "topic %r appears in both %s and %s; keeping the %s one",
                topic.text, first.category, topic.category, first.category)
    return kept


def generate_topics(category: str, n: int, gateway, seed: int,
                    batch_size: int = constants.TOPICS_PER_BATCH,
                    temperature: float = constants.TEMPERATURE_TOPIC,
                    culture: str = constants.CULTURE,
                    retry_limit: int = constants.RETRY_LIMIT,
                    start_batch: int = 0) -> TopicSet:
    """Request topic batches until n unique topics exist, then truncate to n.

    Each batch gets a seed derived from (seed, category, batch index), so a
    parse failure or an all-duplicates batch is retried under a fresh seed
    simply by moving to the next batch index. retry_limit bounds consecutive
    non-productive batches, after which GenerationExhaustedError reports how
    many topics were collected.
    """
    if n < 0:
        raise ValidationError("topic count must be >= 0")
    prompt = render_topic_prompt(category, count=batch_size, culture=culture)
    collected: list[Topic] = []
    seen: set[str] = set()
    batch_id = start_batch
    barren = 0
    while len(collected) < n:
        if barren > retry_limit:
            raise GenerationExhaustedError(
                f"topic generation stalled after {batch_id - start_batch} "
                f"batches ({len(collected)}/{n} {category} topics)",
                collected=len(collected))
        request = GenRequest(
            prompt=prompt, temperature=temperature,
            seed=derive_seed(seed, "topics", category, batch_id))
        raw = gateway.complete(request)
        batch_id += 1
        try:
            texts = parse_topic_list(raw)
        except ParseError:
            logger.warning("unparseable topic batch for %s, re-requesting "
                           "with a fresh seed", category)
            barren += 1
            continue
        gained = 0
        for text in texts:
            key = normalize_topic(text)
            if key in seen:
                continue
            seen.add(key)
            collected.append(Topic(text=text, category=category,
                                   batch_id=batch_id - 1))
            gained += 1
        barren = 0 if gained else barren + 1
    return TopicSet(topics=tuple(collected[:n]))


def build_topic_set(gateway, seed: int, general: int, cultural: int,
                    **kwargs) -> TopicSet:
    """Generate both categories and merge them under global dedup.

    Cross-category collisions shrink a category below its requested count;
    that category is topped up (continuing its batch numbering) until the
    merged set satisfies both counts.
    """
    general_topics = list(generate_topics(
        GENERAL, general, gateway, seed, **kwargs).topics)
    cultural_topics = list(generate_topics(
        CULTURAL, cultural, gateway, seed, **kwargs).topics)
    merged = dedup_topics(cultural_topics + general_topics)
    for _ in range(constants.RETRY_LIMIT):
        counts = {GENERAL: 0, CULTURAL: 0}
        for t in merged:
            counts[t.category] += 1
        if counts[GENERAL] >= general and counts[CULTURAL] >= cultural:
            break
        for category, want in ((GENERAL, general), (CULTURAL, cultural)):
            deficit = want - counts[category]
            if deficit <= 0:
                continue
            next_batch = 1 + max(
                (t.batch_id for t in merged if t.category == category),
                default=-1)
            extra = generate_topics(category, deficit, gateway, seed,
                                    start_batch=next_batch, **kwargs)
            merged = dedup_topics(merged + list(extra.topics))
    else:
        raise GenerationExhaustedError(
            "could not satisfy per-category topic counts after merging",
            collected=len(merged))
    # Trim overflow per category while preserving order.
    final: list[Topic] = []
    quota = {GENERAL: general, CULTURAL: cultural}
    for t in merged:
        if quota[t.category] > 0:
            quota[t.category] -= 1
            final.append(t)
    return TopicSet(topics=tuple(final))
