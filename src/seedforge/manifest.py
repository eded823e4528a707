"""Dataset manifests: the final records of a build plus how they were made.

A manifest's property flags are always derived from its recipe, never set
by hand, so a recipe change cannot silently ship mislabeled data. The
records file's sha256 is the manifest hash; metadata (flags, recipe, seed,
the effective config) sits beside it in `<path>.meta.json`.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterator
from dataclasses import asdict, dataclass

from seedforge.errors import BuildError, ValidationError
from seedforge.instructions import InstructionRecord
from seedforge.records import (file_sha256, parsing, read_json,
                               read_records, record_chunks, write_atomic,
                               write_json)
from seedforge.seeding import derive_seed

VARIANT_FULL = "full"
VARIANT_FLUENCY_ONLY = "fluency_only"
VARIANT_DIVERSITY_ONLY = "diversity_only"
VARIANT_CULTURE_ONLY = "culture_only"
VARIANT_NO_PROPERTIES = "no_properties"
VARIANTS = (VARIANT_FULL, VARIANT_FLUENCY_ONLY, VARIANT_DIVERSITY_ONLY,
            VARIANT_CULTURE_ONLY, VARIANT_NO_PROPERTIES)

# Transforms that damage fluency when present in a recipe.
_DEGRADING_TRANSFORMS = frozenset({
    "round_trip", "paraphrase", "translate_pivot", "translate_target"})


@dataclass(frozen=True)
class PropertyFlags:
    fluency: bool
    culture: bool
    diversity: bool


@dataclass(frozen=True)
class Recipe:
    variant: str
    topics_cultural: int
    topics_general: int
    dedup: bool
    transforms: tuple[str, ...] = ()
    source: str = "generated"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}")
        unknown = set(self.transforms) - _DEGRADING_TRANSFORMS
        if unknown:
            raise ValidationError(
                f"unknown transforms: {', '.join(sorted(unknown))}")


def derive_flags(recipe: Recipe) -> PropertyFlags:
    """Flags follow mechanically from what the recipe did."""
    return PropertyFlags(
        fluency=not (_DEGRADING_TRANSFORMS & set(recipe.transforms)),
        culture=recipe.topics_cultural > 0,
        diversity=recipe.dedup,
    )


@dataclass(frozen=True)
class DatasetManifest:
    records: tuple[InstructionRecord, ...]
    flags: PropertyFlags
    target_size: int
    recipe: Recipe
    seed: int

    def __post_init__(self):
        if len(self.records) != self.target_size:
            raise ValidationError(
                f"manifest holds {len(self.records)} records for target "
                f"size {self.target_size}")
        expected = asdict(self.flags)
        for record in self.records:
            if not record.lineage:
                raise ValidationError(
                    f"record {record.id} carries no lineage")
            if record.flags != expected:
                raise ValidationError(
                    f"record {record.id} flags disagree with the manifest")


def finish_manifest(records: list[InstructionRecord], recipe: Recipe,
                    size: int, seed: int) -> DatasetManifest:
    """Records stamped with the recipe's flags, each in a dict of its own,
    as field-for-field copies: __post_init__ checks no flags, so it is
    not run again."""
    flags = derive_flags(recipe)
    flag_dict = asdict(flags)
    stamped = []
    for record in records:
        copy = object.__new__(type(record))
        copy.__dict__.update(record.__dict__, flags=dict(flag_dict))
        stamped.append(copy)
    return DatasetManifest(records=tuple(stamped), flags=flags,
                           target_size=size, recipe=recipe, seed=seed)


def truncate_records(records: list, size: int, seed: int, label: str,
                     stream: str = "truncate") -> list:
    """Uniform random subset of exactly `size`, order preserved, drawn
    from the random stream (seed, stream, label)."""
    if len(records) < size:
        raise BuildError(
            f"{label}: only {len(records)} records available for target "
            f"{size}", achieved=len(records))
    if len(records) == size:
        return list(records)
    rng = random.Random(derive_seed(seed, stream, label))
    keep = sorted(rng.sample(range(len(records)), size))
    return [records[i] for i in keep]


def manifest_files(manifest: DatasetManifest, config_echo: dict | None
                   ) -> tuple[Iterator[bytes], dict]:
    """The bytes of the records file, in chunks, and the metadata that
    sits beside it. The chunks hash themselves as they are taken; once the
    last one is, the metadata names their sha256, the manifest hash."""
    meta = {
        "flags": asdict(manifest.flags),
        "recipe": asdict(manifest.recipe),
        "record_count": len(manifest.records),
        "records_sha256": None,
        "seed": manifest.seed,
        "target_size": manifest.target_size,
        "config": config_echo,
    }

    def chunks():
        digest = hashlib.sha256()
        for chunk in record_chunks(manifest.records):
            digest.update(chunk)
            yield chunk
        meta["records_sha256"] = digest.hexdigest()

    return chunks(), meta


def write_manifest(manifest: DatasetManifest, path: str,
                   config_echo: dict | None = None) -> str:
    """Records to `path`, metadata to `path`.meta.json; returns the
    records digest, which is the manifest hash."""
    chunks, meta = manifest_files(manifest, config_echo)
    digest = write_atomic(path, chunks)
    write_json(f"{path}.meta.json", meta)
    return digest


def read_manifest(path: str) -> DatasetManifest:
    meta_path = f"{path}.meta.json"
    meta = read_json(meta_path)
    with parsing(meta_path, "a manifest meta file"):
        expected = str(meta["records_sha256"])
        recipe_data = dict(meta["recipe"])
        recipe_data["transforms"] = tuple(recipe_data.get("transforms", ()))
        recipe = Recipe(**recipe_data)
        flags = PropertyFlags(**meta["flags"])
        target_size, seed = meta["target_size"], meta["seed"]
    actual = file_sha256(path)
    if actual != expected:
        raise ValidationError(
            f"{path}: records digest {actual[:12]} does not match the "
            f"manifest ({expected[:12]})")
    return DatasetManifest(records=tuple(read_records(path)), flags=flags,
                           target_size=target_size, recipe=recipe, seed=seed)
