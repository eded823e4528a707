"""Property-controlled dataset variants.

Five variants differ in three properties: fluency (no degrading transforms
applied), cultural context (cultural topics in the mix), and diversity
(near-duplicate filtering on). One table, VARIANT_TABLE, says how each is
built and `build_variant` builds all five from it. The flags on a manifest
are always derived from its recipe (see seedforge.manifest), and the
recipe's transforms are the steps that ran, in order.

The generated variants run the pipeline's checkpointed epoch loop in a
temporary working directory with the row's dedup setting and its topic
counts, which scale with the requested size unless the row re-rolls; the
other two take a full build's manifest or an external corpus. Every
variant then ends the same way: a seeded sample of its records, a recipe
from its row, the recipe's transforms, and the flags stamped.

Degradations are deliberate: round-trip translation simulates a machine
translated corpus, and paraphrase fan-out shrinks semantic diversity while
multiplying size. Both reuse the gateway's translator and paraphraser.
"""

from __future__ import annotations

import functools
import math
import tempfile
from dataclasses import dataclass, replace
from types import SimpleNamespace

from seedforge import constants
from seedforge.config import PipelineConfig
from seedforge.errors import (BuildError, ConfigError, ProviderError,
                              ValidationError)
from seedforge.instructions import (CONVERSATION, GenerationFailure,
                                    InstructionRecord)
from seedforge.manifest import (  # noqa: F401 - re-exported
    VARIANT_CULTURE_ONLY, VARIANT_DIVERSITY_ONLY, VARIANT_FLUENCY_ONLY,
    VARIANT_FULL, VARIANT_NO_PROPERTIES, VARIANTS, DatasetManifest,
    PropertyFlags, Recipe, derive_flags, finish_manifest, read_manifest,
    truncate_records, write_manifest)
from seedforge.pipeline import (MAX_EPOCHS, acquire_contexts, build_pool,
                                generate_records)
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
    when derived. A generated row's counts are for constants.DATASET_SIZE
    records and scale to the requested size, rounded up, so every size
    keeps the row's records per topic; a re-rolling row's counts are
    fixed. reroll: re-run the first epoch's topics under new round
    numbers instead of adding topics.
    """
    source: str
    topics: tuple[int, int] | None
    dedup: bool
    transforms: tuple[str, ...] = ()
    reroll: bool = False


VARIANT_TABLE = {
    VARIANT_FULL: VariantSpec(GENERATED, None, dedup=True),
    VARIANT_FLUENCY_ONLY: VariantSpec(
        GENERATED, (0, constants.TOPICS_FLUENCY_ONLY), dedup=False,
        reroll=True),
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
    """One context + one record batch per topic: the pipeline's contexts
    and instructions stage bodies, composed.

    Output order is by topic index, not completion order; ids and seeds
    are derived from the topic index and round, so reruns are identical.
    """
    contexts = acquire_contexts(topics, gateway, config, start_index,
                                round_no)
    return generate_records(contexts, gateway, config)


# -- field transforms --------------------------------------------------------

def _map_text(record: InstructionRecord, fn, step: str,
              **changes) -> InstructionRecord:
    """fn applied to every text field, `step` appended to the lineage."""
    return replace(
        record,
        instruction=fn(record.instruction),
        context=fn(record.context) if record.context else None,
        output=fn(record.output),
        lineage=record.lineage + (step,),
        **changes,
    )


def round_trip_translate(record: InstructionRecord, gateway,
                         pivot: str = constants.PIVOT_LANGUAGE
                         ) -> InstructionRecord:
    """Translate every text field to the pivot language and back."""
    lang = record.language
    return _map_text(
        record, lambda text: gateway.translate(
            gateway.translate(text, lang, pivot), pivot, lang),
        f"round_trip({pivot})")


def translate_record(record: InstructionRecord, gateway, source: str,
                     target: str) -> InstructionRecord:
    return _map_text(
        record, lambda text: gateway.translate(text, source, target),
        f"translate({source}->{target})", language=target)


def _paraphrase_variants(record: InstructionRecord, gateway, count: int
                         ) -> list[InstructionRecord]:
    """The record itself plus `count` field-wise paraphrases.

    Variant ids get a -pNN suffix; p00 is the untouched original so the
    family is recognizable by id prefix alone.
    """
    instructions = gateway.paraphrase(record.instruction, count)
    outputs = gateway.paraphrase(record.output, count)
    contexts = (gateway.paraphrase(record.context, count)
                if record.context else [None] * count)
    variants = [replace(record, id=f"{record.id}-p00",
                        lineage=record.lineage + ("original",))]
    for k in range(count):
        variants.append(replace(
            record,
            id=f"{record.id}-p{k + 1:02d}",
            instruction=instructions[k],
            context=contexts[k],
            output=outputs[k],
            lineage=record.lineage + (f"paraphrase({k + 1})",),
        ))
    return variants


def _run_transforms(records: list[InstructionRecord], recipe: Recipe,
                    gateway, config: PipelineConfig
                    ) -> list[InstructionRecord]:
    """Run the recipe's transforms in order, each over every record. A
    provider failure on any record fails the build.

    Each step sends each distinct translate or paraphrase request once:
    records made from one context share its passage, so the step sees the
    gateway through a memo that lives as long as the step. A failed
    request is not memoized. Records share a memoized paraphrase list,
    which the transforms only read."""
    pivot, target = config.run_pivot_language, config.run_target_language
    for step in recipe.transforms:
        gateway_once = SimpleNamespace(
            translate=functools.cache(gateway.translate),
            paraphrase=functools.cache(gateway.paraphrase))
        out: list[InstructionRecord] = []
        for record in records:
            try:
                if step == "round_trip":
                    out.append(round_trip_translate(record, gateway_once,
                                                    pivot=pivot))
                elif step == "paraphrase":
                    out.extend(_paraphrase_variants(
                        record, gateway_once, config.paraphrase_count))
                elif step == "translate_pivot":
                    out.append(translate_record(record, gateway_once,
                                                target, pivot))
                else:  # translate_target
                    out.append(translate_record(record, gateway_once,
                                                pivot, target))
            except ProviderError as exc:
                raise BuildError(
                    f"{recipe.variant}: {step} failed for {record.id}: "
                    f"{exc}", achieved=len(out)) from exc
        records = out
    return records


def build_variant(variant: str, gateway, config: PipelineConfig,
                  source=None, workdir_parent: str | None = None
                  ) -> DatasetManifest:
    """The variant's manifest of config.dataset_size records under
    config.run_seed, built as its VARIANT_TABLE row says.

    Generated variants run the pipeline's checkpointed stages in a
    temporary directory under workdir_parent (the system default when
    None), removed on return. A row's topic counts become
    ceil(count * size / DATASET_SIZE), and the pipeline's extension
    epochs make up any shortfall of the pool; a re-rolling variant keeps
    its counts and runs at most ceil(size / topics) + 10 rounds. A derived
    variant needs the full build's DatasetManifest as `source`, an
    external one the records of `load_external_corpus`. Every variant
    then samples size / fan-out of its records (the "truncate" stream when
    generated, else "sample"), runs its transforms and has its flags
    stamped; the fan-out is paraphrase.count + 1 when the transforms
    paraphrase, else 1.
    """
    spec = VARIANT_TABLE[variant]
    size, seed = config.dataset_size, config.run_seed
    if spec.source == GENERATED:
        cultural, general = spec.topics or (config.topics_cultural,
                                            config.topics_general)
        if spec.topics and not spec.reroll:
            cultural, general = (math.ceil(n * size / constants.DATASET_SIZE)
                                 for n in spec.topics)
        config = replace(config, topics_cultural=cultural,
                         topics_general=general)
        max_epochs = (math.ceil(size / max(1, general)) + 10 if spec.reroll
                      else MAX_EPOCHS)
        with tempfile.TemporaryDirectory(prefix=".seedforge-",
                                         dir=workdir_parent) as workdir:
            records = build_pool(config, workdir, gateway, max_epochs,
                                 spec.reroll, spec.dedup)
        origin, stream = GENERATED, "truncate"
    elif spec.source == DERIVED:
        if not isinstance(source, DatasetManifest):
            raise ConfigError(f"{variant} requires --source (a full-build "
                              f"manifest to sample from)")
        if source.recipe.variant != VARIANT_FULL:
            raise ConfigError(f"{variant} samples a {VARIANT_FULL} build, "
                              f"not a {source.recipe.variant} manifest")
        records, stream = list(source.records), "sample"
        origin = f"derived:{source.recipe.variant}"
        cultural, general = spec.topics or (source.recipe.topics_cultural,
                                            source.recipe.topics_general)
    else:
        if not isinstance(source, list):
            raise ConfigError(f"{variant} requires --external (a "
                              f"prompt/response JSONL corpus)")
        records, origin, stream = source, EXTERNAL, "sample"
        cultural, general = spec.topics
    fanout = (config.paraphrase_count + 1
              if "paraphrase" in spec.transforms else 1)
    if size % fanout:
        raise ConfigError(f"size {size} is not a multiple of the paraphrase "
                          f"fan-out {fanout}")
    recipe = Recipe(variant=variant, topics_cultural=cultural,
                    topics_general=general, dedup=spec.dedup,
                    transforms=spec.transforms, source=origin)
    sampled = truncate_records(records, size // fanout, seed, variant,
                               stream=stream)
    return finish_manifest(
        _run_transforms(sampled, recipe, gateway, config), recipe, size,
        seed)


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
