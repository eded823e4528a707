"""Context acquisition: the body of the contexts stage.

Each topic receives one grounding document: either a randomly chosen section
of a wiki article found by searching for the topic, or a model-generated
document in one of thirteen styles. The source choice is a Bernoulli draw,
and every document carries provenance describing exactly how it was obtained.
`acquire_contexts` keys and fetches a whole topic list, on the gateway's
concurrency through `parallel_map`, which the instructions stage shares.
"""

from __future__ import annotations

import logging
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

from seedforge.config import PipelineConfig
from seedforge.errors import GenerationError, ValidationError
from seedforge.gateway.types import GenRequest
from seedforge.seeding import derive_seed
from seedforge.topics import Topic, topic_from_dict, topic_to_dict

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

# Not part of the published recipe.
DEFAULT_CONTEXT_TEMPLATE = (
    "Generate a {style} related to the topic {topic}. Write in Thai.")


@dataclass(frozen=True)
class ContextSource:
    kind: str
    title: str | None = None      # wiki only
    section: str | None = None    # wiki only; "" means the lead section
    style: str | None = None      # generated only

    def __post_init__(self):
        for name in ("title", "section", "style"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise TypeError(f"source {name} must be a string or null")
        if self.kind not in (WIKI, GENERATED):
            raise ValidationError(f"unknown context source kind {self.kind!r}")
        if self.kind == GENERATED and self.style not in CONTEXT_STYLES:
            raise ValidationError(
                f"generated context style {self.style!r} is not one of the "
                f"{len(CONTEXT_STYLES)} known styles")
        if self.kind == GENERATED and {self.title, self.section} != {None}:
            raise ValidationError("generated source has no title or section")
        if self.kind == WIKI and (not self.title or self.section is None):
            raise ValidationError("wiki source requires a title and section")


@dataclass(frozen=True)
class ContextDoc:
    body: str
    source: ContextSource
    topic: Topic
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.body, str):
            raise TypeError("context body must be a string")
        if not self.body.strip():
            raise ValidationError("context body must be non-empty")


def generate_context(topic: Topic, style: str, gateway,
                     config: PipelineConfig,
                     seed: int | None = None) -> ContextDoc:
    """Ask the completion provider for a document in the given style, at
    temperature.context."""
    if style not in CONTEXT_STYLES:
        raise ValidationError(f"style {style!r} is not a known context style")
    prompt = DEFAULT_CONTEXT_TEMPLATE.format(style=style, topic=topic.text)
    request = GenRequest(prompt=prompt,
                         temperature=config.temperature_context, seed=seed)
    body = gateway.complete(request)
    if not body or not body.strip():
        raise GenerationError(
            f"empty generated context for topic {topic.text!r}")
    return ContextDoc(
        body=body.strip(),
        source=ContextSource(kind=GENERATED, style=style),
        topic=topic,
        provenance={"source": GENERATED, "style": style,
                    "temperature": config.temperature_context,
                    "seed": seed})


def wiki_context(topic: Topic, gateway, rng: random.Random,
                 config: PipelineConfig,
                 seed: int | None = None) -> ContextDoc:
    """Search the wiki for the topic and pick one article section.

    The article is drawn uniformly from the top context.wiki_top_k search
    hits and the section uniformly from that article's sections (lead
    included). An empty search falls back to a generated context, noted in
    provenance, so a topic never silently drops out of the pipeline.
    """
    def fallback() -> ContextDoc:
        style = rng.choice(CONTEXT_STYLES)
        doc = generate_context(topic, style, gateway, config, seed=seed)
        return replace(doc, provenance={**doc.provenance,
                                        "wiki_fallback": True})

    refs = gateway.wiki_search(topic.text, limit=config.context_wiki_top_k)
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
    return ContextDoc(
        body=section.body,
        source=ContextSource(kind=WIKI, title=ref.title,
                             section=section.section),
        topic=topic,
        provenance={**section.provenance, "source": WIKI,
                    "title": ref.title, "page_id": ref.page_id,
                    "search_rank": ref.rank, "n_candidates": len(refs),
                    "n_sections": len(sections)})


def acquire_context(topic: Topic, gateway, config: PipelineConfig,
                    key: str) -> ContextDoc:
    """One deterministic context for a topic: from the wiki with
    probability context.p_wiki, else generated in a uniformly drawn style.

    key is the topic's stage key (e.g. "t0007-r00"); every random choice
    flows from (run.seed, key), never from call order.
    """
    rng = random.Random(derive_seed(config.run_seed, key))
    gen_seed = derive_seed(config.run_seed, key, "completion")
    if rng.random() < config.context_p_wiki:
        return wiki_context(topic, gateway, rng, config, seed=gen_seed)
    style = rng.choice(CONTEXT_STYLES)
    return generate_context(topic, style, gateway, config, seed=gen_seed)


def parallel_map(fn, count: int, workers: int) -> list:
    """fn(0..count-1), results in index order: inline when one worker or
    one item leaves nothing to overlap, else on up to `workers` threads."""
    if min(workers, count) <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def acquire_contexts(topics: list[Topic], gateway, config: PipelineConfig,
                     start_index: int = 0, round_no: int = 0
                     ) -> list[tuple[str, ContextDoc]]:
    """One keyed context per topic, on gateway.concurrency threads; keys
    come from the topic index and round, never from completion order."""
    def one(offset: int):
        key = f"t{start_index + offset:04d}-r{round_no:02d}"
        return key, acquire_context(topics[offset], gateway, config, key)

    return parallel_map(one, len(topics), gateway.concurrency)


def context_to_dict(doc: ContextDoc) -> dict:
    """Plain-dict form for JSONL persistence between pipeline stages."""
    return {
        "body": doc.body,
        "source": asdict(doc.source),
        "topic": topic_to_dict(doc.topic),
        "provenance": doc.provenance,
    }


def context_from_dict(data: dict) -> ContextDoc:
    return ContextDoc(
        body=data["body"],
        source=ContextSource(**data["source"]),
        topic=topic_from_dict(data["topic"]),
        provenance=dict(data.get("provenance", {})),
    )
