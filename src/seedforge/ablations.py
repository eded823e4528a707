"""Property-controlled dataset variants.

Five variants differ in three properties: fluency (no degrading transforms
applied), cultural context (cultural topics in the mix), and diversity
(near-duplicate filtering on). One table, VARIANT_TABLE, says how each is
built. The flags on a manifest are always derived from its recipe (see
seedforge.manifest), and the recipe's transforms are the steps that ran,
in order.

This module runs no pipeline stage. A generated row's records come from
`pipeline.run_pipeline`, whose manifest stage calls `variant_manifest`;
`sampled_manifest` takes the records of a derived or external row from
its source. Every variant, `run` as the `full` row included, ends in the
one tail, `variant_manifest`: a seeded sample of its records, a recipe
from its row, the recipe's transforms, and the flags stamped.

Degradations are deliberate: round-trip translation simulates a machine
translated corpus, and paraphrase fan-out shrinks semantic diversity while
multiplying size. Both reuse the gateway's translator and paraphraser, as
batch requests of a step's distinct texts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from seedforge import constants
from seedforge.config import PipelineConfig
from seedforge.contexts import acquire_contexts
from seedforge.errors import (BuildError, ConfigError, ProviderError,
                              ValidationError)
from seedforge.instructions import (CONVERSATION, GenerationFailure,
                                    InstructionRecord, generate_records)
from seedforge.manifest import (  # noqa: F401 - re-exported
    VARIANT_CULTURE_ONLY, VARIANT_DIVERSITY_ONLY, VARIANT_FLUENCY_ONLY,
    VARIANT_FULL, VARIANT_NO_PROPERTIES, VARIANTS, DatasetManifest,
    PropertyFlags, Recipe, derive_flags, finish_manifest, read_manifest,
    truncate_records, write_manifest)
from seedforge.records import read_jsonl_lines
from seedforge.topics import GENERAL, Topic

# Where a variant's records come from.
GENERATED = "generated"  # the pipeline's epoch loop
DERIVED = "derived"  # a sample of a full build's manifest
EXTERNAL = "external"  # a sample of an adapted external corpus


@dataclass(frozen=True)
class VariantSpec:
    """How one variant is built.

    topics: (cultural, general) counts, or None for the counts its records
    were made under: the config's when generated, the source manifest's
    when derived. A generated row with dedup has counts for
    constants.DATASET_SIZE records, which scale to the requested size,
    rounded up, so every size keeps the row's records per topic. A
    generated row without dedup keeps its counts and re-runs the first
    epoch's topics under new round numbers instead of adding topics.
    """
    source: str
    topics: tuple[int, int] | None
    dedup: bool
    transforms: tuple[str, ...] = ()


VARIANT_TABLE = {
    VARIANT_FULL: VariantSpec(GENERATED, None, dedup=True),
    VARIANT_FLUENCY_ONLY: VariantSpec(
        GENERATED, (0, constants.TOPICS_FLUENCY_ONLY), dedup=False),
    VARIANT_DIVERSITY_ONLY: VariantSpec(
        GENERATED, (0, constants.TOPICS_DIVERSITY_ONLY), dedup=True,
        transforms=("round_trip",)),
    VARIANT_CULTURE_ONLY: VariantSpec(
        DERIVED, None, dedup=False,
        transforms=("translate_pivot", "paraphrase", "translate_target")),
    VARIANT_NO_PROPERTIES: VariantSpec(
        EXTERNAL, (0, 0), dedup=False,
        transforms=("paraphrase", "translate_target")),
}


def generate_pass(gateway, config: PipelineConfig, topics: list[Topic], *,
                  start_index: int = 0, round_no: int = 0
                  ) -> tuple[list[InstructionRecord],
                             list[GenerationFailure]]:
    """The contexts and instructions stage bodies, composed: one context
    and one record batch per topic, in topic order, with ids and seeds
    from the topic index and round, so reruns are identical."""
    contexts = acquire_contexts(topics, gateway, config, start_index,
                                round_no)
    return generate_records(contexts, gateway, config)


# -- field transforms --------------------------------------------------------

def _fields(record: InstructionRecord) -> tuple[str, ...]:
    """The record's text fields: instruction, context if any, output."""
    if record.context:
        return record.instruction, record.context, record.output
    return record.instruction, record.output


def _distinct_fields(records) -> list[str]:
    """Every text field of records once, in first-seen order."""
    return list(dict.fromkeys(text for record in records
                              for text in _fields(record)))


def _map_text(record: InstructionRecord, table: dict[str, str], step: str,
              **changes) -> InstructionRecord:
    """Every text field replaced by its entry in table, `step` appended to
    the lineage."""
    return replace(
        record,
        instruction=table[record.instruction],
        context=table[record.context] if record.context else None,
        output=table[record.output],
        lineage=record.lineage + (step,),
        **changes,
    )


def round_trip_translate(record: InstructionRecord, table: dict[str, str],
                         pivot: str = constants.PIVOT_LANGUAGE
                         ) -> InstructionRecord:
    """Every text field replaced by its round trip through the pivot
    language, as table maps it."""
    return _map_text(record, table, f"round_trip({pivot})")


def translate_record(record: InstructionRecord, table: dict[str, str],
                     source: str, target: str) -> InstructionRecord:
    """Every text field replaced by its translation, as table maps it."""
    return _map_text(record, table, f"translate({source}->{target})",
                     language=target)


def _paraphrase_variants(record: InstructionRecord,
                         table: dict[str, list[str]], count: int
                         ) -> list[InstructionRecord]:
    """The record itself plus `count` field-wise paraphrases, each field's
    `count` paraphrases read from table.

    Variant ids get a -pNN suffix; p00 is the untouched original so the
    family is recognizable by id prefix alone.
    """
    contexts = (table[record.context] if record.context
                else [None] * count)
    variants = [replace(record, id=f"{record.id}-p00",
                        lineage=record.lineage + ("original",))]
    for k in range(count):
        variants.append(replace(
            record,
            id=f"{record.id}-p{k + 1:02d}",
            instruction=table[record.instruction][k],
            context=contexts[k],
            output=table[record.output][k],
            lineage=record.lineage + (f"paraphrase({k + 1})",),
        ))
    return variants


def _translations(gateway, texts: list[str], source: str, target: str
                  ) -> dict[str, str]:
    """Each text mapped to its translation, from one gateway call."""
    return dict(zip(texts, gateway.translate(texts, source, target)))


def _round_trips(gateway, texts: list[str], lang: str, pivot: str
                 ) -> dict[str, str]:
    """Each text mapped to its translation into pivot and back, from one
    gateway call per leg; the way back sends each distinct pivot text
    once. A failure on the way back carries the texts it started from."""
    there = _translations(gateway, texts, lang, pivot)
    try:
        back = _translations(gateway, list(dict.fromkeys(there.values())),
                             pivot, lang)
    except ProviderError as exc:
        failed = set(exc.texts)
        exc.texts = tuple(text for text in texts if there[text] in failed)
        raise
    return {text: back[there[text]] for text in texts}


def _run_step(step: str, records: list[InstructionRecord], gateway,
              config: PipelineConfig) -> list[InstructionRecord]:
    """One transform over every record. Records made from one context
    share its passage, so the step collects its distinct text fields
    first and sends them, in first-seen order, in one gateway call per
    leg; the gateway splits them into batch requests."""
    pivot, target = config.run_pivot_language, config.run_target_language
    if step == "paraphrase":
        count = config.paraphrase_count
        texts = _distinct_fields(records)
        table = dict(zip(texts, gateway.paraphrase(texts, count)))
        return [variant for record in records
                for variant in _paraphrase_variants(record, table, count)]
    if step == "round_trip":  # generated records are in the target language
        table = _round_trips(gateway, _distinct_fields(records), target,
                             pivot)
        return [round_trip_translate(record, table, pivot=pivot)
                for record in records]
    source, dest = ((target, pivot) if step == "translate_pivot"
                    else (pivot, target))
    table = _translations(gateway, _distinct_fields(records), source, dest)
    return [translate_record(record, table, source, dest)
            for record in records]


def _run_transforms(records: list[InstructionRecord], recipe: Recipe,
                    gateway, config: PipelineConfig
                    ) -> list[InstructionRecord]:
    """Run the recipe's transforms in order, each over every record. A
    provider failure fails the build, naming the first record, in step
    order, with a text in the request that failed. Records share a
    paraphrase list, which the transforms only read."""
    for step in recipe.transforms:
        try:
            records = _run_step(step, records, gateway, config)
        except ProviderError as exc:
            failed = set(exc.texts)
            record = next((r for r in records
                           if failed.intersection(_fields(r))), records[0])
            raise BuildError(
                f"{recipe.variant}: {step} failed for {record.id}: {exc}",
                achieved=0) from exc
    return records


def variant_manifest(variant: str, records: list[InstructionRecord],
                     topics: tuple[int, int], origin: str, gateway,
                     config: PipelineConfig) -> DatasetManifest:
    """The one tail of every variant, `run` included: a seeded sample of
    size / fan-out of `records` (the "truncate" stream when `origin` is
    GENERATED, else "sample"), the recipe built from the row, `topics`
    (cultural, general) and `origin`, its transforms run, and the flags
    stamped. The fan-out is paraphrase.count + 1 when the transforms
    paraphrase, else 1."""
    spec = VARIANT_TABLE[variant]
    size, seed = config.dataset_size, config.run_seed
    fanout = (config.paraphrase_count + 1
              if "paraphrase" in spec.transforms else 1)
    if size % fanout:
        raise ConfigError(f"size {size} is not a multiple of the paraphrase "
                          f"fan-out {fanout}")
    recipe = Recipe(variant=variant, topics_cultural=topics[0],
                    topics_general=topics[1], dedup=spec.dedup,
                    transforms=spec.transforms, source=origin)
    sampled = truncate_records(
        records, size // fanout, seed, variant,
        stream="truncate" if origin == GENERATED else "sample")
    return finish_manifest(
        _run_transforms(sampled, recipe, gateway, config), recipe, size,
        seed)


def sampled_manifest(variant: str, source, gateway,
                     config: PipelineConfig) -> DatasetManifest:
    """The manifest of a row that samples a source: a full build's
    DatasetManifest for a derived row, the records of
    `load_external_corpus` for an external one."""
    spec = VARIANT_TABLE[variant]
    if spec.source == DERIVED:
        if not isinstance(source, DatasetManifest):
            raise ConfigError(f"{variant} requires --source (a full-build "
                              f"manifest to sample from)")
        if source.recipe.variant != VARIANT_FULL:
            raise ConfigError(f"{variant} samples a {VARIANT_FULL} build, "
                              f"not a {source.recipe.variant} manifest")
        records = list(source.records)
        origin = f"derived:{source.recipe.variant}"
        topics = spec.topics or (source.recipe.topics_cultural,
                                 source.recipe.topics_general)
    else:
        if not isinstance(source, list):
            raise ConfigError(f"{variant} requires --external (a "
                              f"prompt/response JSONL corpus)")
        records, origin, topics = source, EXTERNAL, spec.topics
    return variant_manifest(variant, records, topics, origin, gateway,
                            config)


def load_external_corpus(path: str,
                         pivot: str = constants.PIVOT_LANGUAGE
                         ) -> list[InstructionRecord]:
    """Adapt an external instruction JSONL into records.

    Accepts rows shaped {"prompt", "response"} or {"prompt"/"messages"}
    dialogue dumps; the first user/assistant exchange becomes a
    conversation record. A row without a usable output is an error, not a
    skip: silently shrinking an external corpus would skew sampling.
    """
    records: list[InstructionRecord] = []
    for line_no, row in read_jsonl_lines(path):
        instruction, output = _adapt_external_row(row, path, line_no)
        records.append(InstructionRecord(
            id=f"ext-{len(records):05d}", task=CONVERSATION,
            instruction=instruction, context=None, output=output,
            topic=Topic(text="external corpus", category=GENERAL),
            language=pivot, lineage=("external",),
            provenance={"source_line": line_no}))
    if not records:
        raise ValidationError(f"{path}: no usable rows")
    return records


def _adapt_external_row(row, path: str, line_no: int) -> tuple[str, str]:
    if not isinstance(row, dict):
        raise ValidationError(f"{path} line {line_no}: row is not an object")
    messages = row.get("messages")
    if isinstance(messages, list):
        user = next((m.get("content") for m in messages
                     if isinstance(m, dict) and m.get("role") == "user"),
                    None)
        assistant = next((m.get("content") for m in messages
                          if isinstance(m, dict)
                          and m.get("role") == "assistant"), None)
        user = user or row.get("prompt")
        if not user or not isinstance(user, str) or not user.strip():
            raise ValidationError(
                f"{path} line {line_no}: no user message")
        if (not assistant or not isinstance(assistant, str)
                or not assistant.strip()):
            raise ValidationError(
                f"{path} line {line_no}: row has no assistant output")
        return user, assistant
    prompt = row.get("prompt")
    response = row.get("response")
    if not prompt or not isinstance(prompt, str) or not prompt.strip():
        raise ValidationError(f"{path} line {line_no}: row has no prompt")
    if (not response or not isinstance(response, str)
            or not response.strip()):
        raise ValidationError(
            f"{path} line {line_no}: row has no output field")
    return prompt, response
