"""Untimed output checks.

Each check returns a list of problems; an empty list means the output is
correct. The checks hold their own references to the seedforge functions
they use, taken at import, so the traced run's wrappers never see them.
"""

from __future__ import annotations

import json

import numpy as np

from seedforge.dedup import sample_text
from seedforge.gateway.mock import MockEmbedder
from seedforge.records import file_sha256, read_records

# Property flags per ablation variant, as the README's variant table
# states them: (fluency, culture, diversity).
VARIANT_FLAGS = {
    "full": (True, True, True),
    "fluency": (True, False, False),
    "diversity": (False, False, True),
    "culture": (False, True, False),
    "none": (False, False, False),
}

_SCORE_RANGES = {"chrf": 100.0}
_COSINE_SLACK = 1e-9


def manifest_digests(path: str) -> tuple[str, str]:
    """sha256 of the records file and of its metadata file."""
    return file_sha256(path), file_sha256(f"{path}.meta.json")


def max_pair_cosine(texts: list[str], dim: int, block: int = 128
                    ) -> tuple[float, int, int]:
    """Largest cosine between two different texts under a fresh mock
    embedder, found with a blocked matrix pass. Returns (cosine, i, j).

    It runs in the benchmark's process, so it stays well below the
    program's own dedup memory and does not set `peak_rss_mb`: texts are
    embedded `block` at a time straight into one matrix, and one
    block x n similarity slab is alive at a time."""
    if len(texts) < 2:
        return -1.0, -1, -1
    embedder = MockEmbedder(dim=dim)
    mat = np.empty((len(texts), dim), dtype=np.float64)
    for start in range(0, len(texts), block):
        chunk = embedder.embed_batch(texts[start:start + block])
        mat[start:start + len(chunk)] = [v.values for v in chunk]
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    best = (-1.0, -1, -1)
    for start in range(0, len(mat), block):
        sims = mat[start:start + block] @ mat.T
        rows = np.arange(sims.shape[0])
        sims[rows, rows + start] = -np.inf
        flat = int(np.argmax(sims))
        i, j = divmod(flat, sims.shape[1])
        if sims[i, j] > best[0]:
            best = (float(sims[i, j]), start + i, j)
    return best


def check_manifest(path: str, size: int, flags: tuple[bool, bool, bool],
                   threshold: float | None = None,
                   embed_dim: int = 256) -> list[str]:
    """Record count, flags, records digest and, when `threshold` is
    given, that no two records are above it in cosine."""
    with open(f"{path}.meta.json", encoding="utf-8") as handle:
        meta = json.load(handle)
    problems = []
    want = dict(zip(("fluency", "culture", "diversity"), flags))
    if meta["flags"] != want:
        problems.append(f"{path}: flags {meta['flags']} != {want}")
    if meta["record_count"] != size:
        problems.append(f"{path}: {meta['record_count']} records in "
                        f"metadata, expected {size}")
    if file_sha256(path) != meta["records_sha256"]:
        problems.append(f"{path}: records digest does not match metadata")
    records = read_records(path)
    if len(records) != size:
        problems.append(f"{path}: {len(records)} records, expected {size}")
    stray = [r.id for r in records if r.flags != want]
    if stray:
        problems.append(f"{path}: {len(stray)} records carry other flags, "
                        f"first {stray[0]}")
    if threshold is not None:
        cos, i, j = max_pair_cosine([sample_text(r) for r in records],
                                    embed_dim)
        if cos > threshold + _COSINE_SLACK:
            problems.append(
                f"{path}: records {records[i].id} and {records[j].id} "
                f"have cosine {cos:.4f} > threshold {threshold}")
    return problems


def _out_of_range(name: str, value) -> bool:
    if value is None:
        return False
    high = _SCORE_RANGES.get(name, 1.0)
    return not 0.0 <= value <= high


def check_report(report: dict, systems: list[str], pairs: int,
                 better: str | None = None,
                 worse: str | None = None) -> list[str]:
    """Pair counts, every score within its range, and, when given, that
    the less perturbed system `better` outscores `worse` overall."""
    problems = []
    if report.get("systems") != systems:
        problems.append(f"report systems {report.get('systems')} != "
                        f"{systems}")
        return problems
    for system in systems:
        block = report["per_system"][system]
        if block["pair_count"] != pairs or len(block["per_pair"]) != pairs:
            problems.append(f"{system}: {len(block['per_pair'])} scored "
                            f"pairs, expected {pairs}")
        for pair_id, scores in block["per_pair"].items():
            bad = [k for k, v in scores.items() if _out_of_range(k, v)]
            if bad:
                problems.append(f"{system}/{pair_id}: {bad[0]} = "
                                f"{scores[bad[0]]} out of range")
                break
        bad = [k for k, v in block["overall"].items()
               if _out_of_range(k, v)]
        if bad:
            problems.append(f"{system}: overall {bad[0]} out of range")
    for comp in report.get("comparisons", []):
        if _out_of_range("p_value", comp.get("p_value")):
            problems.append(f"comparison p-value {comp['p_value']} out of "
                            f"range")
    if better and worse and not problems:
        for metric in ("rouge1_f1", "bert_like_f1"):
            hi = report["per_system"][better]["overall"][metric]
            lo = report["per_system"][worse]["overall"][metric]
            if not hi > lo:
                problems.append(f"{metric}: {better} ({hi:.4f}) does not "
                                f"beat {worse} ({lo:.4f})")
    return problems
