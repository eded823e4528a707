"""Semantic near-duplicate removal.

Records are embedded by their sample text (instruction, context, and
output joined by newlines), then filtered in ascending id order: a record
is dropped when an already-kept record is strictly above the similarity
threshold (keep-first: a removed record cannot knock out later ones).
Earlier ids always win, which makes the pass deterministic and idempotent.

The search is one exact tiled scan that screens in float32 and decides
in float64. The raw rows are scaled to unit length into one preallocated
float32 matrix, a slab of rows at a time; the scan multiplies a block of
its rows at a time against the earlier rows, one column tile at a time,
so at most about `SLAB_ELEMENTS` similarities are alive at once. A tile
keeps every pair within `screen_margin` below the cut, which covers the
float32 rounding of any pair above it. Each kept pair's cosine is then
recomputed from the two raw float64 rows by one fixed formula that no
library reorders (`_cosines`), and only those values decide: the
over-threshold pairs of a row block are resolved in one pass in id order
before the next block starts. Removals therefore do not depend on BLAS,
its threads or the tile shape.

A similarity counts as above the threshold only when it exceeds it by more
than `TIE_TOLERANCE`. Pairs whose cosine sits at the threshold (the mock
embedder's integer bag-of-words vectors produce them) would otherwise be
decided by rounding in the last bit, and with it the manifest bytes. Among
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

# How many times the rounding bound of a float32 cosine the screen allows.
SCREEN_SAFETY = 4


def sample_text(record) -> str:
    """The text a record is embedded by: instruction, context, output,
    newline-separated; a missing context leaves an empty middle line."""
    return "\n".join([record.instruction, record.context or "",
                      record.output])


def screen_margin(dim: int) -> float:
    """How far below its float64 value the float32 cosine of two rows of
    dimension `dim` may read, times SCREEN_SAFETY. Rounding each unit row
    to float32 moves the cosine by at most 2u, and summing `dim` float32
    products in any order by at most gamma_dim = dim*u / (1 - dim*u), with
    u = 2**-24 (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, section 3.1); (dim + 2)*u / (1 - dim*u) bounds both."""
    u = 2.0 ** -24
    return SCREEN_SAFETY * (dim + 2) * u / (1.0 - dim * u)


def _unit_rows(rows, ids: list[str]) -> np.ndarray:
    """rows scaled to unit length, as one float32 matrix: each row is
    divided by its float64 norm, a slab of rows at a time, so no float64
    copy of the matrix is made."""
    n, dim = rows.shape
    mat = np.empty((n, dim), dtype=np.float32)
    step = max(1, SLAB_ELEMENTS // max(dim, 1))
    for lo in range(0, n, step):
        slab = rows[np.arange(lo, min(n, lo + step))]
        norms = np.linalg.norm(slab, axis=1)
        bad = np.flatnonzero(norms == 0.0)
        if bad.size:
            raise ValidationError(
                f"zero-norm embedding for record {ids[lo + int(bad[0])]}")
        np.divide(slab, norms[:, None], out=mat[lo:lo + len(slab)])
    return mat


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """The sum over the first axis, added strictly in index order, so that
    no library can reorder it."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


def _cosines(rows, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The cosine of each pair of rows (left[k], right[k]), from the raw
    float64 rows: the products of their components summed in component
    order, over the product of the rows' norms summed the same way. Each
    value depends only on the two rows, never on BLAS or on the pairs
    computed with it. Pairs are taken a slab of rows at a time."""
    step = max(1, SLAB_ELEMENTS // max(rows.shape[1], 1))
    sims = np.empty(len(left))
    for lo in range(0, len(left), step):
        pairs = slice(lo, lo + step)
        at, where = np.unique(np.concatenate([left[pairs], right[pairs]]),
                              return_inverse=True)
        columns = np.ascontiguousarray(rows[at].T)
        norms = np.sqrt(_ordered_sum(columns * columns))
        a, b = np.split(where, 2)
        sims[pairs] = (_ordered_sum(columns[:, a] * columns[:, b])
                       / (norms[a] * norms[b]))
    return sims


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


def _dedup_exact(ids: list[str], rows, threshold: float,
                 start: int = 0, block: int | None = None,
                 width: int | None = None
                 ) -> tuple[list[int], list[Removal]]:
    """Tiled scan over the raw float64 `rows`, one per id in id order: an
    array, or a _Rows. Rows before `start` are kept earlier decisions:
    compared with, never scanned. Each later row is compared with every
    kept row before it.
    Returns the kept row indexes from `start` on and the removals, both in
    id order. A tile is `block` rows by `width` columns of the float32
    unit rows; it screens, and `_cosines` of the pairs it keeps decide."""
    mat = _unit_rows(rows, ids)
    n = len(ids)
    width = width or tile_width(n)
    block = block or block_rows(width)
    cut = threshold + TIE_TOLERANCE
    # Compared with float32 tiles, the screen is rounded to float32: half
    # a unit roundoff, well inside the margin's safety factor.
    screen = cut - screen_margin(mat.shape[1])
    keep = np.ones(n, dtype=bool)
    removed: list[Removal] = []
    # Every tile is computed into this one buffer.
    buf = np.empty(max(0, min(block, n - start)) * width, dtype=np.float32)
    for lo in range(start, n, block):
        hi = min(n, lo + block)
        hits = []
        for c0 in range(0, hi - 1, width):
            c1 = min(hi - 1, c0 + width)
            tile = buf[:(hi - lo) * (c1 - c0)].reshape(hi - lo, c1 - c0)
            np.matmul(mat[lo:hi], mat[c0:c1].T, out=tile)
            # flatnonzero of the flat mask: nonzero of the 2-D mask took
            # longer than the float32 product.
            rows_at, cols = np.divmod(np.flatnonzero(tile > screen),
                                      c1 - c0)
            rows_at, cols = rows_at + lo, cols + c0
            # A row meets only the columns before it.
            before = cols < rows_at
            if before.any():
                hits.append((rows_at[before], cols[before]))
        if not hits:
            continue
        rows_at, cols = (np.concatenate(part) for part in zip(*hits))
        # A column removed by an earlier block never decides a row.
        live = keep[cols]
        rows_at, cols = rows_at[live], cols[live]
        sims = _cosines(rows, rows_at, cols)
        over = sims > cut
        rows_at, cols, sims = rows_at[over], cols[over], sims[over]
        if len(hits) > 1:
            order = np.lexsort((cols, rows_at))
            rows_at, cols, sims = rows_at[order], cols[order], sims[order]
        firsts = np.flatnonzero(np.diff(rows_at, prepend=-1))
        for a, b in zip(firsts, np.append(firsts[1:], rows_at.size)):
            js, ss = cols[a:b], sims[a:b]
            live = keep[js]
            js, ss = js[live], ss[live]
            if not js.size:
                continue
            # js ascend, so argmax of the mask is the earliest of the ties.
            best = int(np.argmax(ss >= ss.max() - TIE_TOLERANCE))
            i = int(rows_at[a])
            keep[i] = False
            removed.append(Removal(record_id=ids[i],
                                   nearest_id=ids[int(js[best])],
                                   similarity=float(ss[best])))
    return (start + np.flatnonzero(keep[start:])).tolist(), removed


class _Rows:
    """The raw rows a scan compares, read in place: the rows of each known
    block that stand, block by block, then the new rows. rows[js] gathers
    the rows at ascending positions js into one float64 array."""

    def __init__(self, parts: list[tuple[np.ndarray, np.ndarray]],
                 dim: int):
        # parts: (block, the numbers of the block's rows the scan sees)
        self.parts = parts
        sizes = [len(taken) for _, taken in parts]
        self.starts = np.cumsum([0] + sizes[:-1])
        self.shape = (sum(sizes), dim)

    def __getitem__(self, js: np.ndarray) -> np.ndarray:
        out = np.empty((len(js), self.shape[1]))
        part = np.searchsorted(self.starts, js, side="right") - 1
        bounds = np.searchsorted(part, np.arange(len(self.parts) + 1))
        for (block, taken), start, a, b in zip(self.parts, self.starts,
                                                bounds, bounds[1:]):
            if a < b:
                # take writes straight into `out`; its indices come from
                # `taken`, so `clip` never clips.
                np.take(block, taken[js[a:b] - start], axis=0,
                        out=out[a:b], mode="clip")
        return out


def _rows(known: Known, fresh: np.ndarray) -> tuple[_Rows, list[str]]:
    """The rows to scan, without copying any: the known rows that are not
    in `known.removed`, in known.ids order, then the rows of `fresh`.
    Returns them with the ids of their known rows."""
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
    parts, lo = [], 0
    for block in blocks:
        taken = np.flatnonzero(stand[lo:lo + len(block)])
        lo += len(block)
        # An epoch without records embeds to shape (0, 0).
        if len(taken):
            parts.append((block, taken))
    parts.append((fresh, np.arange(len(fresh))))
    return (_Rows(parts, dims.pop()),
            [rid for rid, s in zip(known.ids, stand) if s])


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
    rows, stand_ids = _rows(known, fresh)
    start = len(stand_ids)
    kept_at, removed = _dedup_exact(stand_ids + ids, rows, threshold, start)
    kept = [records[p - start] for p in kept_at]
    logger.info("dedup kept %d of %d records (threshold %.3f)",
                len(kept), len(records), threshold)
    return DedupResult(kept=kept, removed=removed, vectors=fresh)
