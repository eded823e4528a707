"""Semantic near-duplicate removal.

Records are embedded by their sample text (instruction, context, and
output joined by newlines), then filtered in ascending id order: a record
is dropped when an already-kept record is strictly above the similarity
threshold (keep-first: a removed record cannot knock out later ones).
Earlier ids always win, which makes the pass deterministic and idempotent.

The search is one exact tiled scan. The raw vectors are assembled once into
a preallocated matrix and normalised in place; the scan then multiplies a
block of rows at a time against the earlier rows, one column tile at a
time, so at most about `SLAB_ELEMENTS` similarities are alive at once. The
over-threshold pairs of a row block are resolved in one pass in id order
before the next block starts.

A similarity counts as above the threshold only when it exceeds it by more
than `TIE_TOLERANCE`. Pairs whose cosine sits at the threshold (the mock
embedder's integer bag-of-words vectors produce them) would otherwise flip
with the BLAS summation order, and with it the manifest bytes. Among
candidates within the same tolerance of the highest similarity the
earliest id is reported as the nearest.

Callers that deduplicated some records before (a pipeline epoch adding
records to its earlier pool) pass them as `known`: their ids, raw vectors
and removals. Known rows are context only: they are never embedded,
scanned or decided again, and their removals stand. The records passed in
are decided after them, so the order is earlier calls first, then id order
within a call, which in a pipeline is generation order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from seedforge import constants
from seedforge.errors import ProtocolError, ValidationError
from seedforge.records import parsing, read_json, write_json

logger = logging.getLogger(__name__)

# A similarity is above the threshold only beyond threshold + TIE_TOLERANCE.
# Far above float64 rounding of a unit-vector dot product, far below any
# threshold a user would tell apart.
TIE_TOLERANCE = 1e-12

# Similarities held at once by the scan: block rows x tile columns.
SLAB_ELEMENTS = 2 ** 19
MIN_BLOCK_ROWS = 16


def sample_text(record) -> str:
    """The text a record is embedded by: instruction, context, output,
    newline-separated; a missing context leaves an empty middle line."""
    return "\n".join([record.instruction, record.context or "",
                      record.output])


def _normalize_in_place(mat: np.ndarray, ids: list[str]) -> None:
    """Scale every row to unit length, a slab of rows at a time, so the
    squares that the norms are summed from never take a second matrix."""
    step = max(1, SLAB_ELEMENTS // max(mat.shape[1], 1))
    for lo in range(0, len(mat), step):
        rows = mat[lo:lo + step]
        norms = np.linalg.norm(rows, axis=1)
        bad = np.flatnonzero(norms == 0.0)
        if bad.size:
            raise ValidationError(
                f"zero-norm embedding for record {ids[lo + int(bad[0])]}")
        rows /= norms[:, None]


@dataclass(frozen=True)
class Removal:
    """Why a record was dropped: nearest_id is the kept record it
    duplicates."""

    record_id: str
    nearest_id: str
    similarity: float


@dataclass(frozen=True)
class Known:
    """Records deduplicated before under the same threshold: their
    ids, their raw vectors as row blocks whose rows, concatenated, follow
    `ids`, and the removals among them."""

    ids: list[str]
    vectors: list[np.ndarray]
    removed: list[Removal]


@dataclass
class DedupResult:
    """kept and removed partition the input. vectors holds the raw
    embedding of every input record, one row per record in id order."""

    kept: list
    removed: list[Removal]
    vectors: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))


def write_removals(removed: list[Removal], path: str) -> str:
    """Removals as one JSON list of {record_id, nearest_id, similarity},
    written atomically; returns its sha256."""
    return write_json(path, [asdict(r) for r in removed])


def read_removals(path: str) -> list[Removal]:
    rows = read_json(path)
    removed = []
    with parsing(path, "a removals file"):
        for row in rows:
            ids = (row["record_id"], row["nearest_id"])
            if not all(isinstance(rid, str) for rid in ids):
                raise TypeError(f"record ids must be strings, got {ids}")
            removed.append(Removal(*ids, float(row["similarity"])))
    return removed


def block_rows(width: int) -> int:
    """Rows per scan tile when a tile spans `width` columns: about
    SLAB_ELEMENTS // width."""
    return max(MIN_BLOCK_ROWS, SLAB_ELEMENTS // max(width, 1))


def tile_width(n: int) -> int:
    """Columns per scan tile for n rows. Tiles twice as wide as tall
    measured slightly faster than square ones."""
    return max(1, min(n, math.isqrt(2 * SLAB_ELEMENTS)))


def _dedup_exact(ids: list[str], mat: np.ndarray, threshold: float,
                 start: int = 0, block: int | None = None,
                 width: int | None = None
                 ) -> tuple[list[int], list[Removal]]:
    """Tiled scan over unit rows `mat` (id order). Rows before `start` are
    kept earlier decisions: compared with, never scanned. Each later row is
    compared with every kept row before it.
    Returns the kept row indexes from `start` on and the removals, both in
    id order. A tile is `block` rows by `width` columns."""
    n = len(ids)
    width = width or tile_width(n)
    block = block or block_rows(width)
    cut = threshold + TIE_TOLERANCE
    keep = np.ones(n, dtype=bool)
    removed: list[Removal] = []
    # Every tile is computed into this one buffer.
    buf = np.empty(max(0, min(block, n - start)) * width)
    for lo in range(start, n, block):
        hi = min(n, lo + block)
        hits = []
        # Row lo + r meets column c0 + c only if c0 + c < lo + r.
        for c0 in range(0, hi - 1, width):
            c1 = min(hi - 1, c0 + width)
            tile = buf[:(hi - lo) * (c1 - c0)].reshape(hi - lo, c1 - c0)
            np.matmul(mat[lo:hi], mat[c0:c1].T, out=tile)
            over = tile > cut
            if c1 > lo:
                over = np.tril(over, k=lo - c0 - 1)
            rows, cols = np.nonzero(over)
            if rows.size:
                hits.append((rows, cols + c0, tile[rows, cols]))
        if not hits:
            continue
        rows, cols, sims = (np.concatenate(part) for part in zip(*hits))
        if len(hits) > 1:
            order = np.lexsort((cols, rows))
            rows, cols, sims = rows[order], cols[order], sims[order]
        firsts = np.flatnonzero(np.diff(rows, prepend=-1))
        for a, b in zip(firsts, np.append(firsts[1:], rows.size)):
            js, ss = cols[a:b], sims[a:b]
            live = keep[js]
            js, ss = js[live], ss[live]
            if not js.size:
                continue
            # js ascend, so argmax of the mask is the earliest of the ties.
            best = int(np.argmax(ss >= ss.max() - TIE_TOLERANCE))
            i = lo + int(rows[a])
            keep[i] = False
            removed.append(Removal(record_id=ids[i],
                                   nearest_id=ids[int(js[best])],
                                   similarity=float(ss[best])))
    return (start + np.flatnonzero(keep[start:])).tolist(), removed


def _matrix(known: Known, fresh: np.ndarray
            ) -> tuple[np.ndarray, list[str]]:
    """The comparison matrix, allocated once: the known rows that are not
    in `known.removed`, in known.ids order, then the rows of `fresh`.
    Returns it with the ids of its known rows."""
    blocks = [np.asarray(b, dtype=np.float64) for b in known.vectors]
    if any(b.ndim != 2 for b in blocks):
        raise ProtocolError("embeddings are not one vector per record")
    n_known = sum(len(b) for b in blocks)
    if n_known != len(known.ids):
        raise ProtocolError(f"{n_known} known vectors for "
                            f"{len(known.ids)} known ids")
    dims = {b.shape[1] for b in blocks + [fresh] if len(b)}
    if len(dims) > 1:
        raise ProtocolError(f"embeddings do not share one dimension: "
                            f"{sorted(dims)}")
    gone = {r.record_id for r in known.removed}
    stand = np.array([rid not in gone for rid in known.ids], dtype=bool)
    mat = np.empty((int(stand.sum()) + len(fresh), dims.pop()),
                   dtype=np.float64)
    mat[len(mat) - len(fresh):] = fresh
    at = lo = 0
    for block in blocks:
        if not len(block):
            # An epoch without records embeds to shape (0, 0).
            continue
        # take writes straight into `out`; compress would copy its whole
        # output through a temporary buffer first.
        rows = np.flatnonzero(stand[lo:lo + len(block)])
        np.take(block, rows, axis=0, out=mat[at:at + len(rows)],
                mode="clip")
        lo, at = lo + len(block), at + len(rows)
    return mat, [rid for rid, s in zip(known.ids, stand) if s]


def dedup_filter(records: list, gateway, *,
                 threshold: float = constants.DEDUP_THRESHOLD,
                 known: Known | None = None) -> DedupResult:
    """Drop records whose nearest kept predecessor is strictly above
    threshold.

    Records are processed in ascending id order regardless of input order,
    each measured against the records already kept.
    known: records deduplicated before, under the same threshold. They
    come before every record, and only the kept ones among them are
    compared with; none is embedded or decided again.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValidationError(f"threshold {threshold} outside (0, 1]")
    if not records:
        return DedupResult(kept=[], removed=[])
    records = sorted(records, key=lambda r: r.id)
    ids = [r.id for r in records]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate record ids in dedup input")
    known = known or Known([], [], [])
    known_ids = set(known.ids)
    if len(known_ids) != len(known.ids):
        raise ValidationError("duplicate record ids in known rows")
    again = known_ids.intersection(ids)
    if again:
        raise ValidationError(f"record {min(again)} is already known")
    fresh = np.asarray(gateway.embed([sample_text(r) for r in records]),
                       dtype=np.float64)
    if fresh.ndim != 2 or len(fresh) != len(records):
        raise ProtocolError("embeddings are not one vector per record")
    mat, stand_ids = _matrix(known, fresh)
    start = len(stand_ids)
    _normalize_in_place(mat, stand_ids + ids)
    kept_at, removed = _dedup_exact(stand_ids + ids, mat, threshold, start)
    kept = [records[p - start] for p in kept_at]
    logger.info("dedup kept %d of %d records (threshold %.3f)",
                len(kept), len(records), threshold)
    return DedupResult(kept=kept, removed=removed, vectors=fresh)
