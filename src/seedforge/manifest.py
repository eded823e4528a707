"""Dataset manifests: the final records of a build plus how they were made.

A manifest's property flags are always derived from its recipe, never set
by hand, so a recipe change cannot silently ship mislabeled data. The
records file's sha256 is the manifest hash; metadata (flags, recipe, seed,
the effective config) sits beside it in `<path>.meta.json`.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace

from seedforge.errors import BuildError, ValidationError
from seedforge.instructions import InstructionRecord
from seedforge.records import (file_sha256, read_json, read_records,
                               write_json, write_records)
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
    flags = derive_flags(recipe)
    flag_dict = asdict(flags)
    stamped = tuple(replace(r, flags=flag_dict) for r in records)
    return DatasetManifest(records=stamped, flags=flags, target_size=size,
                           recipe=recipe, seed=seed)


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


def write_manifest(manifest: DatasetManifest, path: str,
                   config_echo: dict | None = None) -> str:
    """Records to `path`, metadata to `path`.meta.json; returns the
    records digest, which is the manifest hash."""
    digest = write_records(list(manifest.records), path)
    write_json(f"{path}.meta.json", {
        "flags": asdict(manifest.flags),
        "recipe": asdict(manifest.recipe),
        "record_count": len(manifest.records),
        "records_sha256": digest,
        "seed": manifest.seed,
        "target_size": manifest.target_size,
        "config": config_echo,
    })
    return digest


def read_manifest(path: str) -> DatasetManifest:
    meta = read_json(f"{path}.meta.json")
    actual = file_sha256(path)
    if actual != meta["records_sha256"]:
        raise ValidationError(
            f"{path}: records digest {actual[:12]} does not match the "
            f"manifest ({meta['records_sha256'][:12]})")
    records = tuple(read_records(path))
    recipe_data = dict(meta["recipe"])
    recipe_data["transforms"] = tuple(recipe_data.get("transforms", ()))
    recipe = Recipe(**recipe_data)
    return DatasetManifest(records=records,
                           flags=PropertyFlags(**meta["flags"]),
                           target_size=meta["target_size"],
                           recipe=recipe, seed=meta["seed"])


def manifest_hash(path: str) -> str:
    return file_sha256(path)
