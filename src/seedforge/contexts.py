"""Context acquisition.

Each topic receives one grounding document: either a randomly chosen section
of a wiki article found by searching for the topic, or a model-generated
document in one of thirteen styles. The source choice is a Bernoulli draw,
and every document carries provenance describing exactly how it was obtained.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field

from seedforge import constants
from seedforge.errors import GenerationError, ValidationError
from seedforge.gateway.types import GenRequest
from seedforge.seeding import derive_seed
from seedforge.topics import Topic

logger = logging.getLogger(__name__)

WIKI = "wiki"
GENERATED = "generated"

CONTEXT_STYLES = (
    "news article",
    "blog post",
    "text messages",
    "fictional short story",
    "video transcript",
    "song",
    "poem",
    "scientific study",
    "medical report",
    "social media post with replies",
    "email",
    "tweet",
    "how-to article",
)

# Not part of the published recipe; override via context.prompt_template.
DEFAULT_CONTEXT_TEMPLATE = (
    "Generate a {style} related to the topic {topic}. Write in Thai.")


@dataclass(frozen=True)
class ContextSource:
    kind: str
    title: str | None = None      # wiki only
    section: str | None = None    # wiki only; "" means the lead section
    style: str | None = None      # generated only

    def __post_init__(self):
        if self.kind not in (WIKI, GENERATED):
            raise ValidationError(f"unknown context source kind {self.kind!r}")
        if self.kind == GENERATED and self.style not in CONTEXT_STYLES:
            raise ValidationError(
                f"generated context style {self.style!r} is not one of the "
                f"{len(CONTEXT_STYLES)} known styles")
        if self.kind == WIKI and not self.title:
            raise ValidationError("wiki context source requires a title")


@dataclass(frozen=True)
class ContextDoc:
    body: str
    source: ContextSource
    topic: Topic | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.body or not self.body.strip():
            raise ValidationError("context body must be non-empty")

    def with_topic(self, topic: Topic, extra: dict | None = None) -> "ContextDoc":
        provenance = dict(self.provenance)
        if extra:
            provenance.update(extra)
        return ContextDoc(body=self.body, source=self.source, topic=topic,
                          provenance=provenance)


@dataclass(frozen=True)
class ContextPolicy:
    p_wiki: float = constants.P_WIKI
    wiki_top_k: int = constants.WIKI_TOP_K
    temperature: float = constants.TEMPERATURE_CONTEXT
    prompt_template: str = DEFAULT_CONTEXT_TEMPLATE

    def __post_init__(self):
        if not 0.0 <= self.p_wiki <= 1.0:
            raise ValidationError("p_wiki must be in [0, 1]")
        if self.wiki_top_k < 1:
            raise ValidationError("wiki_top_k must be >= 1")


def choose_source(policy: ContextPolicy, rng: random.Random) -> str:
    """Bernoulli(p_wiki) draw: WIKI with probability p_wiki, else GENERATED.

    p_wiki=1.0 always picks the wiki, 0.0 never does.
    """
    return WIKI if rng.random() < policy.p_wiki else GENERATED


def generate_context(topic: Topic, style: str, gateway,
                     policy: ContextPolicy = ContextPolicy(),
                     seed: int | None = None) -> ContextDoc:
    """Ask the completion provider for a document in the given style."""
    if style not in CONTEXT_STYLES:
        raise ValidationError(f"style {style!r} is not a known context style")
    prompt = policy.prompt_template.format(style=style, topic=topic.text)
    request = GenRequest(prompt=prompt, temperature=policy.temperature,
                         seed=seed)
    body = gateway.complete(request)
    if not body or not body.strip():
        raise GenerationError(
            f"empty generated context for topic {topic.text!r}")
    return ContextDoc(
        body=body.strip(),
        source=ContextSource(kind=GENERATED, style=style),
        topic=topic,
        provenance={"source": GENERATED, "style": style,
                    "temperature": policy.temperature, "seed": seed})


def wiki_context(topic: Topic, gateway, rng: random.Random,
                 policy: ContextPolicy = ContextPolicy(),
                 seed: int | None = None) -> ContextDoc:
    """Search the wiki for the topic and pick one article section.

    The article is drawn uniformly from the top search hits and the section
    uniformly from that article's sections (lead included). An empty search
    falls back to a generated context, noted in provenance, so a topic never
    silently drops out of the pipeline.
    """
    def fallback() -> ContextDoc:
        style = rng.choice(CONTEXT_STYLES)
        doc = generate_context(topic, style, gateway, policy, seed=seed)
        return doc.with_topic(topic, extra={"wiki_fallback": True})

    refs = gateway.wiki_search(topic.text, limit=policy.wiki_top_k)
    if not refs:
        logger.info("wiki search empty for %r, falling back to generation",
                    topic.text)
        return fallback()
    ref = refs[rng.randrange(len(refs))]
    sections = gateway.wiki_fetch_sections(ref)
    if not sections:
        logger.info("article %r has no usable sections, falling back to "
                    "generation", ref.title)
        return fallback()
    section = sections[rng.randrange(len(sections))]
    return section.with_topic(topic, extra={
        "source": WIKI,
        "title": ref.title,
        "page_id": ref.page_id,
        "search_rank": ref.rank,
        "n_candidates": len(refs),
        "n_sections": len(sections),
    })


def acquire_context(topic: Topic, gateway, build_seed: int, key: str,
                    policy: ContextPolicy = ContextPolicy()) -> ContextDoc:
    """One deterministic context for a topic.

    key is a stable path (e.g. "ctx/0007/r00"); all random choices flow from
    (build_seed, key), never from call order.
    """
    rng = random.Random(derive_seed(build_seed, key))
    gen_seed = derive_seed(build_seed, key, "completion")
    if choose_source(policy, rng) == WIKI:
        return wiki_context(topic, gateway, rng, policy, seed=gen_seed)
    style = rng.choice(CONTEXT_STYLES)
    return generate_context(topic, style, gateway, policy, seed=gen_seed)


def context_to_dict(doc: ContextDoc) -> dict:
    """Plain-dict form for JSONL persistence between pipeline stages."""
    topic = None
    if doc.topic is not None:
        topic = {"text": doc.topic.text, "category": doc.topic.category,
                 "batch_id": doc.topic.batch_id}
    return {
        "body": doc.body,
        "source": {"kind": doc.source.kind, "title": doc.source.title,
                   "section": doc.source.section, "style": doc.source.style},
        "topic": topic,
        "provenance": doc.provenance,
    }


def context_from_dict(data: dict) -> ContextDoc:
    try:
        source = data["source"]
        topic_data = data["topic"]
        topic = None
        if topic_data is not None:
            topic = Topic(text=topic_data["text"],
                          category=topic_data["category"],
                          batch_id=int(topic_data.get("batch_id", 0)))
        return ContextDoc(
            body=data["body"],
            source=ContextSource(kind=source["kind"],
                                 title=source.get("title"),
                                 section=source.get("section"),
                                 style=source.get("style")),
            topic=topic,
            provenance=dict(data.get("provenance", {})),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed context row: {exc}") from None
