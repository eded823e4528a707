"""Property-controlled dataset variants.

Five builders produce datasets that differ in three properties: fluency
(no degrading transforms applied), cultural context (cultural topics in the
mix), and diversity (near-duplicate filtering on). The flags on a manifest
are always derived from its recipe (see seedforge.manifest).

The three generated variants are fixed topic and dedup settings for the
pipeline's checkpointed epoch loop, which runs in a temporary working
directory, followed by a truncation and the variant's transforms. The
other two derive from a full build or from an external corpus.

Degradations are deliberate: round-trip translation simulates a machine
translated corpus, and paraphrase fan-out shrinks semantic diversity while
multiplying size. Both reuse the gateway's translator and paraphraser.
"""

from __future__ import annotations

import logging
import math
import tempfile
from dataclasses import replace
from functools import partial

from seedforge import constants
from seedforge.config import PipelineConfig, default_config
from seedforge.contexts import ContextPolicy
from seedforge.errors import BuildError, ProviderError, ValidationError
from seedforge.instructions import (CONVERSATION, GENERATION_TASKS,
                                    GenerationFailure, InstructionRecord,
                                    TaskSettings)
from seedforge.manifest import (  # noqa: F401 - re-exported
    VARIANT_CULTURE_ONLY, VARIANT_DIVERSITY_ONLY, VARIANT_FLUENCY_ONLY,
    VARIANT_FULL, VARIANT_NO_PROPERTIES, VARIANTS, DatasetManifest,
    PropertyFlags, Recipe, derive_flags, finish_manifest, manifest_hash,
    read_manifest, truncate_records, write_manifest)
from seedforge.pipeline import (MAX_EPOCHS, acquire_contexts, build_pool,
                                generate_records)
from seedforge.records import read_jsonl_lines
from seedforge.topics import GENERAL, Topic

logger = logging.getLogger(__name__)

# The generated variants: default general-topic count (None: the config's
# cultural and general counts), dedup, transforms.
_GENERATED = {
    VARIANT_FULL: (None, True, ()),
    VARIANT_FLUENCY_ONLY: (constants.TOPICS_FLUENCY_ONLY, False, ()),
    VARIANT_DIVERSITY_ONLY: (constants.TOPICS_DIVERSITY_ONLY, True,
                             ("round_trip",)),
}
GENERATED_VARIANTS = tuple(_GENERATED)


def generate_pass(gateway, seed: int, topics: list[Topic], *,
                  start_index: int = 0, round_no: int = 0,
                  policy: ContextPolicy, settings: TaskSettings,
                  tasks: tuple[str, ...] = GENERATION_TASKS,
                  max_workers: int | None = None
                  ) -> tuple[list[InstructionRecord],
                             list[GenerationFailure]]:
    """One context + one record batch per topic: the pipeline's contexts
    and instructions stage bodies, composed.

    Output order is by topic index, not completion order; ids and seeds
    are derived from the topic index and round, so reruns are identical.
    """
    workers = max_workers or gateway.budget.max_concurrent
    contexts = acquire_contexts(topics, gateway, seed, policy, workers,
                                start_index, round_no)
    return generate_records(contexts, gateway, seed, settings, workers, tasks)


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


def _paraphrase_fanout(records: list[InstructionRecord], gateway,
                       config: PipelineConfig, label: str, to_pivot: bool
                       ) -> list[InstructionRecord]:
    """Each record plus its paraphrases, made in the pivot language (after
    translating there first when to_pivot) and translated to the target."""
    pivot, target = config.run_pivot_language, config.run_target_language
    out: list[InstructionRecord] = []
    for record in records:
        source = record
        if to_pivot:
            source = translate_record(replace(record, flags=None), gateway,
                                      target, pivot)
        try:
            variants = _paraphrase_variants(source, gateway,
                                            config.paraphrase_count)
        except ProviderError as exc:
            raise BuildError(
                f"{label}: paraphrase failed for {record.id}: {exc}",
                achieved=len(out)) from exc
        out.extend(translate_record(v, gateway, pivot, target)
                   for v in variants)
    return out


# -- variant builders --------------------------------------------------------

def build_generated(variant: str, gateway, seed: int,
                    size: int = constants.DATASET_SIZE,
                    config: PipelineConfig | None = None,
                    topics_general: int | None = None,
                    workdir_parent: str | None = None) -> DatasetManifest:
    """One of the generated variants: `size` records under `seed`.

    The variant's topic counts and dedup setting replace the config's:
    full keeps the config's cultural and general counts, fluency_only and
    diversity_only use `topics_general` general topics (their default when
    None). The pipeline's checkpointed stages then run in a temporary
    directory under workdir_parent (the system default when None), removed
    on return. fluency_only re-rolls its fixed topics instead of extending
    them, for at most ceil(size / topics) + 10 rounds.
    """
    config = config or default_config()
    default_general, dedup, transforms = _GENERATED[variant]
    if default_general is None:
        cultural, general = config.topics_cultural, config.topics_general
    else:
        cultural = 0
        general = (default_general if topics_general is None
                   else topics_general)
    reroll = variant == VARIANT_FLUENCY_ONLY
    max_epochs = (math.ceil(size / max(1, general)) + 10 if reroll
                  else MAX_EPOCHS)
    build_config = replace(config, run_seed=seed, dataset_size=size,
                           topics_cultural=cultural, topics_general=general,
                           dedup_enabled=dedup)
    with tempfile.TemporaryDirectory(prefix=".seedforge-",
                                     dir=workdir_parent) as workdir:
        pool = build_pool(build_config, workdir, gateway, max_epochs,
                          reroll)
    records = truncate_records(pool, size, seed, variant)
    if "round_trip" in transforms:
        # The bounce is a final degradation step, after dedup.
        bounced = []
        for record in records:
            try:
                bounced.append(round_trip_translate(
                    record, gateway, pivot=config.run_pivot_language))
            except ProviderError as exc:
                logger.warning("%s: dropping %s, translation failed: %s",
                               variant, record.id, exc)
        if len(bounced) != size:
            raise BuildError(
                f"{variant}: {len(bounced)} records survived round-trip "
                f"translation, target {size}", achieved=len(bounced))
        records = bounced
    recipe = Recipe(variant=variant, topics_cultural=cultural,
                    topics_general=general, dedup=dedup,
                    transforms=transforms)
    return finish_manifest(records, recipe, size, seed)


# full: cultural + general topics, dedup, no degradation. fluency_only:
# ten general topics re-rolled over rounds, no dedup. diversity_only:
# general topics with dedup, then round-trip translation.
build_full = partial(build_generated, VARIANT_FULL)
build_fluency_only = partial(build_generated, VARIANT_FLUENCY_ONLY)
build_diversity_only = partial(build_generated, VARIANT_DIVERSITY_ONLY)


def build_culture_only(full: DatasetManifest, gateway, seed: int,
                       config: PipelineConfig | None = None,
                       sample_count: int | None = None) -> DatasetManifest:
    """Sample from a full build, then degrade diversity and fluency:
    translate to the pivot, paraphrase each sample 4 times, translate all
    of it back. Size is 5x the sample by construction."""
    config = config or default_config()
    if sample_count is None:
        sample_count = full.target_size // constants.SAMPLE_DIVISOR
    if sample_count < 1:
        raise ValidationError("sample_count must be >= 1")
    sampled = truncate_records(list(full.records), sample_count, seed,
                               VARIANT_CULTURE_ONLY, stream="sample")
    out = _paraphrase_fanout(sampled, gateway, config, VARIANT_CULTURE_ONLY,
                             to_pivot=True)
    recipe = Recipe(variant=VARIANT_CULTURE_ONLY,
                    topics_cultural=full.recipe.topics_cultural,
                    topics_general=full.recipe.topics_general,
                    dedup=False,
                    transforms=("translate_pivot", "paraphrase",
                                "translate_target"),
                    source=f"derived:{full.recipe.variant}")
    return finish_manifest(out, recipe, len(out), seed)


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


def build_no_properties(external: list[InstructionRecord], gateway,
                        seed: int, config: PipelineConfig | None = None,
                        sample_count: int | None = None) -> DatasetManifest:
    """External corpus, paraphrased 4x and translated to the target
    language. No generated topics, no dedup, no fluency."""
    config = config or default_config()
    if sample_count is None:
        sample_count = constants.DATASET_SIZE // constants.SAMPLE_DIVISOR
    sampled = truncate_records(external, sample_count, seed,
                               VARIANT_NO_PROPERTIES, stream="sample")
    out = _paraphrase_fanout(sampled, gateway, config, VARIANT_NO_PROPERTIES,
                             to_pivot=False)
    recipe = Recipe(variant=VARIANT_NO_PROPERTIES, topics_cultural=0,
                    topics_general=0, dedup=False,
                    transforms=("paraphrase", "translate_target"),
                    source="external")
    return finish_manifest(out, recipe, len(out), seed)
