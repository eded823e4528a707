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

A record's fate depends only on records with smaller ids. Callers that
deduplicated some of the records before (a pipeline epoch adding records
to its earlier pool) pass them as `known`: their ids, raw vectors and
removals. Only the other records are embedded. When every other record
sorts after every known id, the known decisions stand and only the new
rows are scanned, against the kept known rows. Otherwise every record is
scanned again, still from the known vectors.
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
    embedding of every input record not in `known`, one row per record in
    id order."""

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


def _matrix(ids: list[str], rows: list[int], known: Known,
            fresh_rows: list[int], fresh: np.ndarray) -> np.ndarray:
    """The comparison matrix, allocated once: row p holds the raw vector
    of record rows[p]. Both `rows` and `fresh_rows` ascend; the records at
    fresh_rows take the rows of `fresh` in order, the others their rows
    in the known blocks."""
    blocks = [np.asarray(b, dtype=np.float64) for b in known.vectors]
    bounds = np.cumsum([0] + [len(b) for b in blocks])
    if bounds[-1] != len(known.ids):
        raise ProtocolError(f"{bounds[-1]} known vectors for "
                            f"{len(known.ids)} known ids")
    if any(b.ndim != 2 for b in blocks):
        raise ProtocolError("embeddings are not one vector per record")
    dims = {b.shape[1] for b in blocks + [fresh] if len(b)}
    if len(dims) > 1:
        raise ProtocolError(f"embeddings do not share one dimension: "
                            f"{sorted(dims)}")
    mat = np.empty((len(rows), dims.pop() if dims else 0), dtype=np.float64)
    is_fresh = set(fresh_rows)
    if fresh_rows:
        mat[[p for p, r in enumerate(rows) if r in is_fresh]] = fresh
    known_at = {rid: k for k, rid in enumerate(known.ids)}
    dest = np.array([p for p, r in enumerate(rows) if r not in is_fresh],
                    dtype=np.intp)
    src = np.array([known_at[ids[rows[p]]] for p in dest], dtype=np.intp)
    owner = np.searchsorted(bounds, src, side="right") - 1
    for b, block in enumerate(blocks):
        mine = owner == b
        to, frm = dest[mine], src[mine] - bounds[b]
        if to.size and to[-1] - to[0] + 1 == to.size:
            # A contiguous run of rows is filled without a temporary copy.
            np.take(block, frm, axis=0, out=mat[to[0]:to[-1] + 1])
        else:
            mat[to] = block[frm]
    return mat


def dedup_filter(records: list, gateway, *,
                 threshold: float = constants.DEDUP_THRESHOLD,
                 known: Known | None = None) -> DedupResult:
    """Drop records whose nearest kept predecessor is strictly above
    threshold.

    Records are processed in ascending id order regardless of input order,
    each measured against the records already kept.
    known: records deduplicated before, under the same threshold.
    They are not embedded again, and when every other record sorts after
    them their decisions stand and only the other records are scanned.
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
    fresh_rows = [i for i, rid in enumerate(ids) if rid not in known_ids]
    fresh = np.empty((0, 0))
    if fresh_rows:
        fresh = np.asarray(gateway.embed([sample_text(records[i])
                                          for i in fresh_rows]),
                           dtype=np.float64)
        if fresh.ndim != 2 or len(fresh) != len(fresh_rows):
            raise ProtocolError("embeddings are not one vector per record")
    decided = len(ids) - len(fresh_rows)
    if decided == len(known.ids) and (not fresh_rows
                                      or fresh_rows[0] == decided):
        # Every known id is a record, and sorts before every fresh one.
        gone = {r.record_id for r in known.removed}
        stand = [i for i in range(decided) if ids[i] not in gone]
        rows, start = stand + fresh_rows, len(stand)
        kept = [records[i] for i in stand]
        removed = list(known.removed)
    else:
        logger.info("dedup: new ids do not all follow the %d known ids; "
                    "scanning all %d records", len(known.ids), len(ids))
        rows, start, kept, removed = list(range(len(ids))), 0, [], []
    row_ids = [ids[r] for r in rows]
    mat = _matrix(ids, rows, known, fresh_rows, fresh)
    _normalize_in_place(mat, row_ids)
    kept_at, new_removals = _dedup_exact(row_ids, mat, threshold, start)
    kept += [records[rows[p]] for p in kept_at]
    removed += new_removals
    logger.info("dedup kept %d of %d records (threshold %.3f)",
                len(kept), len(records), threshold)
    return DedupResult(kept=kept, removed=removed, vectors=fresh)
