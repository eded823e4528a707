"""Topic acquisition.

Topics are short free-form phrases produced by the completion provider in two
categories: "general" (anything at all) and "cultural" (anchored to the
target culture through a persona preamble). Batches are requested at high
temperature and parsed leniently. Each category is collected against one
set of normalized topic keys shared with the other category and with
earlier epochs: a topic already claimed is skipped, and collection stops at
exactly the requested count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from seedforge import constants
from seedforge.config import PipelineConfig
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
        if not isinstance(self.text, str):
            raise TypeError("topic text must be a string")
        if not self.text.strip():
            raise ValidationError("topic text must be non-empty")
        if self.category not in CATEGORIES:
            raise ValidationError(f"unknown topic category {self.category!r}")


def topic_to_dict(topic: Topic) -> dict:
    """The one JSON form of a topic, in topics, contexts and record files."""
    return {"text": topic.text, "category": topic.category,
            "batch_id": topic.batch_id}


def topic_from_dict(data: dict) -> Topic:
    """Inverse of topic_to_dict. A missing batch_id reads as 0 and a
    numeric string as its integer; a missing text or category raises
    KeyError, a row that is not an object TypeError."""
    return Topic(text=data["text"], category=data["category"],
                 batch_id=int(data.get("batch_id", 0)))


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


def generate_topics(category: str, n: int, gateway, config: PipelineConfig,
                    taken: set[str] | None = None,
                    start_batch: int = 0) -> list[Topic]:
    """Request topic batches until exactly n new topics are collected.

    `taken` holds the normalized keys of topics already claimed, by this
    category or any other; a taken topic is skipped, and each kept topic
    is added to it, so callers share one set across categories and
    epochs. Each batch asks for topics.per_batch topics about run.culture
    at temperature.topics, under a seed derived from (run.seed, category,
    batch index), so a parse failure or a batch of only taken topics is
    retried under a fresh seed simply by moving to the next batch index.
    budget.retry_limit bounds consecutive non-productive batches, after
    which GenerationExhaustedError reports how many topics were collected.
    """
    if n < 0:
        raise ValidationError("topic count must be >= 0")
    taken = set() if taken is None else taken
    prompt = render_topic_prompt(category, count=config.topics_per_batch,
                                 culture=config.run_culture)
    collected: list[Topic] = []
    batch_id = start_batch
    barren = 0
    while len(collected) < n:
        if barren > config.budget_retry_limit:
            raise GenerationExhaustedError(
                f"topic generation stalled after {batch_id - start_batch} "
                f"batches ({len(collected)}/{n} {category} topics)",
                collected=len(collected))
        request = GenRequest(
            prompt=prompt, temperature=config.temperature_topics,
            seed=derive_seed(config.run_seed, "topics", category, batch_id))
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
            if key in taken:
                continue
            taken.add(key)
            collected.append(Topic(text=text, category=category,
                                   batch_id=batch_id - 1))
            gained += 1
            if len(collected) == n:
                break
        barren = 0 if gained else barren + 1
    return collected
