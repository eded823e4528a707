"""Semantic near-duplicate removal.

Records are embedded by their sample text (instruction, context, and
output joined by newlines), then filtered in ascending id order: a record
is dropped when an earlier record in the comparison pool is strictly above
the similarity threshold. Earlier ids always win, which makes the pass
deterministic and idempotent.

The search is one exact blocked scan: the unit vectors are multiplied a
block of rows at a time against every earlier row, so at most about
`SLAB_ELEMENTS` similarities are alive at once. The over-threshold pairs of
a block are resolved in one pass in id order before the next block starts.

A similarity counts as above the threshold only when it exceeds it by more
than `TIE_TOLERANCE`. Pairs whose cosine sits at the threshold (the mock
embedder's integer bag-of-words vectors produce them) would otherwise flip
with the BLAS summation order, and with it the manifest bytes. Among
candidates within the same tolerance of the highest similarity the
earliest id is reported as the nearest.

Callers that already hold embeddings for some of the records (a pipeline
epoch re-deduplicating its earlier pool plus new records) pass them as
`known`; only the other records are embedded.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from seedforge import constants
from seedforge.errors import ProtocolError, ValidationError

logger = logging.getLogger(__name__)

KEEP_FIRST = "keep_first"
FULL_SET = "full_set"
DEDUP_MODES = (KEEP_FIRST, FULL_SET)

# A similarity is above the threshold only beyond threshold + TIE_TOLERANCE.
# Far above float64 rounding of a unit-vector dot product, far below any
# threshold a user would tell apart.
TIE_TOLERANCE = 1e-12

# Similarities held at once by the scan: block rows x compared rows.
SLAB_ELEMENTS = 2 ** 19
MIN_BLOCK_ROWS = 16


def sample_text(record) -> str:
    """The text a record is embedded by: instruction, context, output,
    newline-separated; a missing context leaves an empty middle line."""
    return "\n".join([record.instruction, record.context or "",
                      record.output])


def cosine(a, b) -> float:
    """Cosine similarity with hard errors instead of NaN conventions."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 1 or va.shape != vb.shape:
        raise ValidationError(
            f"cosine needs two vectors of one shape, got {va.shape} "
            f"and {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ValidationError("cosine is undefined for a zero vector")
    return float(np.dot(va, vb) / (na * nb))


def _normalized_matrix(mat: np.ndarray, ids: list[str]) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ValidationError(
            f"zero-norm embedding for record {ids[int(bad[0])]}")
    return mat / norms[:, None]


@dataclass(frozen=True)
class Removal:
    """Why a record was dropped. nearest_id is a kept record under
    keep_first; under full_set it can itself be a removed one."""

    record_id: str
    nearest_id: str
    similarity: float


@dataclass
class DedupResult:
    """kept and removed partition the input. vectors holds the raw
    embedding of every input record, one row per record in id order."""

    kept: list
    removed: list[Removal]
    threshold: float
    mode: str = KEEP_FIRST
    vectors: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    @property
    def removed_ids(self) -> set[str]:
        return {r.record_id for r in self.removed}


def block_rows(n: int) -> int:
    """Rows per scan block for n records: about SLAB_ELEMENTS // n."""
    return max(MIN_BLOCK_ROWS, SLAB_ELEMENTS // max(n, 1))


def _dedup_exact(ids: list[str], mat: np.ndarray, threshold: float,
                 mode: str, block: int | None = None
                 ) -> tuple[list[int], list[Removal]]:
    """Blocked scan over unit rows `mat` (id order). Returns the kept row
    indexes and the removals, both in id order."""
    n = len(ids)
    block = block or block_rows(n)
    cut = threshold + TIE_TOLERANCE
    keep = np.ones(n, dtype=bool)
    removed: list[Removal] = []
    for start in range(0, n, block):
        stop = min(n, start + block)
        slab = mat[start:stop] @ mat[:stop].T
        # (r, j) compares row start + r with row j; keep only j < start + r.
        rows, cols = np.nonzero(np.tril(slab > cut, k=start - 1))
        if not rows.size:
            continue
        sims = slab[rows, cols]
        firsts = np.flatnonzero(np.diff(rows, prepend=-1))
        for lo, hi in zip(firsts, np.append(firsts[1:], rows.size)):
            js, ss = cols[lo:hi], sims[lo:hi]
            if mode == KEEP_FIRST:
                live = keep[js]
                js, ss = js[live], ss[live]
                if not js.size:
                    continue
            # js ascend, so argmax of the mask is the earliest of the ties.
            best = int(np.argmax(ss >= ss.max() - TIE_TOLERANCE))
            i = start + int(rows[lo])
            keep[i] = False
            removed.append(Removal(record_id=ids[i],
                                   nearest_id=ids[int(js[best])],
                                   similarity=float(ss[best])))
    return np.flatnonzero(keep).tolist(), removed


def _embeddings(records: list, gateway,
                known: tuple[list[str], np.ndarray] | None) -> np.ndarray:
    """Raw embeddings of id-sorted records as one (n, d) array: rows of
    `known` (ids, vectors) where it has the id, the gateway for the rest."""
    positions = {rid: k for k, rid in enumerate(known[0])} if known else {}
    have = [i for i, r in enumerate(records) if r.id in positions]
    missing = [i for i, r in enumerate(records) if r.id not in positions]
    parts = []
    if missing:
        fresh = np.asarray(
            gateway.embed([sample_text(records[i]) for i in missing]),
            dtype=np.float64)
        parts.append((missing, fresh))
    if have:
        parts.append((have, known[1][[positions[records[i].id]
                                      for i in have]]))
    if any(vecs.ndim != 2 or len(vecs) != len(rows) for rows, vecs in parts):
        raise ProtocolError("embeddings are not one vector per record")
    dims = {vecs.shape[1] for _, vecs in parts}
    if len(dims) != 1:
        raise ProtocolError(f"embeddings do not share one dimension: "
                            f"{sorted(dims)}")
    if len(parts) == 1:
        return parts[0][1]
    mat = np.empty((len(records), dims.pop()), dtype=np.float64)
    for rows, vecs in parts:
        mat[rows] = vecs
    return mat


def dedup_filter(records: list, gateway, *,
                 threshold: float = constants.DEDUP_THRESHOLD,
                 mode: str = KEEP_FIRST,
                 known: tuple[list[str], np.ndarray] | None = None
                 ) -> DedupResult:
    """Drop records whose nearest predecessor is strictly above threshold.

    Records are processed in ascending id order regardless of input order.
    mode selects the comparison pool: keep_first measures against the
    records already kept (a removed record cannot knock out later ones),
    full_set against every earlier record regardless of its fate.
    known: (ids, raw vectors) of records embedded before; those records
    are not embedded again.
    """
    if mode not in DEDUP_MODES:
        raise ValidationError(f"unknown dedup mode {mode!r}")
    if not 0.0 < threshold <= 1.0:
        raise ValidationError(f"threshold {threshold} outside (0, 1]")
    if not records:
        return DedupResult(kept=[], removed=[], threshold=threshold,
                           mode=mode)
    records = sorted(records, key=lambda r: r.id)
    ids = [r.id for r in records]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate record ids in dedup input")
    vectors = _embeddings(records, gateway, known)
    kept_idx, removed = _dedup_exact(
        ids, _normalized_matrix(vectors, ids), threshold, mode)
    logger.info("dedup kept %d of %d records (threshold %.3f, %s)",
                len(kept_idx), len(records), threshold, mode)
    return DedupResult(kept=[records[i] for i in kept_idx],
                       removed=removed, threshold=threshold, mode=mode,
                       vectors=vectors)
