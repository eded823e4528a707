"""Semantic near-duplicate removal.

Records are embedded by their sample text (instruction, context, and
output joined by newlines), then filtered in ascending id order: a record
is dropped when an already-kept record is strictly above the similarity
threshold (keep-first: a removed record cannot knock out later ones).
Earlier ids always win, which makes the pass deterministic and idempotent.

The search is one exact tiled scan that screens in float32 and decides
in float64. The raw float64 rows live only in vectors files (`Vectors`):
each batch of the embedding reply is scaled to unit length into one
preallocated float32 matrix and appended to the caller's spool file as it
arrives, and the known rows are read from their files a slab at a time
into the same matrix. The scan multiplies a block of
its rows at a time against the earlier rows, one column tile at a time,
so at most about `SLAB_ELEMENTS` similarities are alive at once. A tile
keeps every pair within `screen_margin` below the cut, which covers the
float32 rounding of any pair above it. Each kept pair's cosine is then
recomputed from the two raw float64 rows, read back from their files,
by one fixed formula that no library reorders (`_cosines`), and only
those values decide: the
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
records to its earlier pool) pass them as `known`: their ids, vectors
files and removals. Known rows are context only: they are never embedded,
scanned or decided again, and their removals stand. The records passed in
are decided after them, so the order is earlier calls first, then id order
within a call, which in a pipeline is generation order.
"""

from __future__ import annotations

import hashlib
import io
import logging
import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from seedforge import constants
from seedforge.errors import ParseError, ProtocolError, ValidationError
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


def _scale(slab: np.ndarray, out: np.ndarray, ids: list[str]) -> None:
    """The float64 rows of `slab` divided by their norms into the float32
    `out`; a zero row is an error naming its id, ids[k] for row k."""
    norms = np.linalg.norm(slab, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ValidationError(
            f"zero-norm embedding for record {ids[int(bad[0])]}")
    np.divide(slab, norms[:, None], out=out)


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


@dataclass
class Vectors:
    """A vectors file: raw float64 embedding rows as a .npy file, read
    with explicit reads. It is never mapped or loaded whole, so only the
    rows a read asks for are in memory. offset is where the rows start;
    sha256 is the file's when a spool wrote it, else None."""

    path: str
    shape: tuple[int, int]
    offset: int
    sha256: str | None

    def __len__(self) -> int:
        return self.shape[0]

    def read(self, at: np.ndarray, out: np.ndarray) -> None:
        """The rows at the ascending positions `at` into the C-ordered
        float64 `out`, with one read per run of consecutive rows."""
        size = self.shape[1] * out.itemsize
        starts = np.flatnonzero(np.diff(at, prepend=-2) != 1)
        with open(self.path, "rb", buffering=0) as handle:
            for a, b in zip(starts, np.append(starts[1:], len(at))):
                view = memoryview(out[a:b]).cast("B")
                handle.seek(self.offset + int(at[a]) * size)
                if handle.readinto(view) != len(view):
                    raise ParseError(f"{self.path}: fewer rows than its "
                                     f"header says")


def read_vectors(path: str) -> Vectors:
    """A vectors file, by its header: its rows are read as they are
    needed."""
    with open(path, "rb") as handle, parsing(path, "a vectors file"):
        if np.lib.format.read_magic(handle) != (1, 0):
            raise ValueError("not a version 1.0 .npy file")
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        if len(shape) != 2 or fortran or dtype != np.float64:
            raise ValueError(f"{dtype} rows of shape {shape}")
        return Vectors(path, shape, handle.tell(), None)


def _npy_header(shape: tuple[int, int]) -> bytes:
    """The .npy 1.0 header np.save writes for float64 rows of `shape`."""
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(head, {
        "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
        "fortran_order": False, "shape": shape})
    return head.getvalue()


def write_spool(path: str, rows: int, blocks: Iterable[np.ndarray]
                ) -> Vectors:
    """Write `rows` float64 rows, arriving as `blocks`, to a vectors file
    as they arrive: the header first, for the first block's width, then
    each block's own buffer, hashed as it is written. The bytes are those
    np.save writes for the rows stacked; no block at all gives shape
    (rows, 0)."""
    digest = hashlib.sha256()
    shape = header = None
    with open(path, "wb") as handle:
        def put(blob) -> None:
            handle.write(blob)
            digest.update(blob)

        for block in blocks:
            if shape is None:
                shape = (rows, block.shape[1])
                put(header := _npy_header(shape))
            put(np.ascontiguousarray(block, dtype=np.float64))
        if shape is None:
            shape = (rows, 0)
            put(header := _npy_header(shape))
    return Vectors(path, shape, len(header), digest.hexdigest())


@dataclass(frozen=True)
class Known:
    """Records deduplicated before under the same threshold: their ids,
    the vectors files of their raw rows, whose rows, concatenated, follow
    `ids`, and the removals among them."""

    ids: list[str]
    vectors: list[Vectors]
    removed: list[Removal]


@dataclass
class DedupResult:
    """kept and removed partition the input. vectors is the vectors file
    that holds the raw embedding of every input record, one row per
    record in id order."""

    kept: list
    removed: list[Removal]
    vectors: Vectors


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


def _dedup_exact(ids: list[str], mat: np.ndarray, rows, threshold: float,
                 start: int = 0, block: int | None = None,
                 width: int | None = None
                 ) -> tuple[list[int], list[Removal]]:
    """Tiled scan over `mat`, the float32 unit rows of the raw float64
    `rows`, one per id in id order; `rows` is an array or a _Rows. Rows
    before `start` are kept earlier decisions: compared with, never
    scanned. Each later row is compared with every kept row before it.
    Returns the kept row indexes from `start` on and the removals, both in
    id order. A tile is `block` rows by `width` columns of `mat`; it
    screens, and `_cosines` of the pairs it keeps, read from `rows`,
    decide."""
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
    """The raw rows a scan compares, read from their vectors files: the
    rows of each known file that stand, file by file, then the new rows.
    rows[js] reads the rows at ascending positions js into one float64
    array."""

    def __init__(self, parts: list[tuple[Vectors, np.ndarray]], dim: int):
        # parts: (file, the numbers of the file's rows the scan sees)
        self.parts = parts
        sizes = [len(taken) for _, taken in parts]
        self.starts = np.cumsum([0] + sizes[:-1])
        self.shape = (sum(sizes), dim)

    def __getitem__(self, js: np.ndarray) -> np.ndarray:
        out = np.empty((len(js), self.shape[1]))
        part = np.searchsorted(self.starts, js, side="right") - 1
        bounds = np.searchsorted(part, np.arange(len(self.parts) + 1))
        for (vectors, taken), start, a, b in zip(self.parts, self.starts,
                                                  bounds, bounds[1:]):
            if a < b:
                vectors.read(taken[js[a:b] - start], out[a:b])
        return out


def _standing(known: Known) -> tuple[list[tuple[Vectors, np.ndarray]],
                                     list[str], set[int]]:
    """The known rows a scan compares with: for each known vectors file,
    the numbers of its rows whose ids are not in `known.removed`; their
    ids, in known.ids order; and the known rows' dimensions."""
    n_known = sum(len(v) for v in known.vectors)
    if n_known != len(known.ids):
        raise ProtocolError(f"{n_known} known vectors for "
                            f"{len(known.ids)} known ids")
    gone = {r.record_id for r in known.removed}
    stand = np.array([rid not in gone for rid in known.ids], dtype=bool)
    parts, lo = [], 0
    for vectors in known.vectors:
        taken = np.flatnonzero(stand[lo:lo + len(vectors)])
        lo += len(vectors)
        # An epoch without records wrote a (0, 0) file.
        if len(taken):
            parts.append((vectors, taken))
    return (parts, [rid for rid, s in zip(known.ids, stand) if s],
            {v.shape[1] for v in known.vectors if len(v)})


def _check_ids(ids: list[str], known_ids: list[str]) -> None:
    """Each id once, and none of `ids` known."""
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate record ids in dedup input")
    known = set(known_ids)
    if len(known) != len(known_ids):
        raise ValidationError("duplicate record ids in known rows")
    again = known.intersection(ids)
    if again:
        raise ValidationError(f"record {min(again)} is already known")


def _fill(mat: np.ndarray, rows: _Rows, ids: list[str]) -> None:
    """Scale the first len(ids) rows, read a slab at a time, into mat."""
    step = max(1, SLAB_ELEMENTS // mat.shape[1])
    for lo in range(0, len(ids), step):
        hi = min(len(ids), lo + step)
        _scale(rows[np.arange(lo, hi)], mat[lo:hi], ids[lo:hi])


def dedup_filter(records: list, gateway, spool: str, *,
                 threshold: float = constants.DEDUP_THRESHOLD,
                 known: Known | None = None) -> DedupResult:
    """Drop records whose nearest kept predecessor is strictly above
    threshold.

    Records are processed in ascending id order regardless of input order,
    each measured against the records already kept.
    spool: the path the raw embeddings of the records are written to as
    each batch arrives, the result's `vectors`. Each batch is scaled into
    the float32 matrix the scan screens with; no float64 copy is kept.
    known: records deduplicated before, under the same threshold. They
    come before every record, and only the kept ones among them are
    compared with, read from their files a slab at a time; none is
    embedded or decided again.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValidationError(f"threshold {threshold} outside (0, 1]")
    if not records:
        return DedupResult(kept=[], removed=[],
                           vectors=write_spool(spool, 0, ()))
    records = sorted(records, key=lambda r: r.id)
    ids = [r.id for r in records]
    known = known or Known([], [], [])
    _check_ids(ids, known.ids)
    parts, stand_ids, dims = _standing(known)
    start = len(stand_ids)
    mat = None

    def scaled(blocks):
        """Each block, once it is scaled into mat."""
        nonlocal mat
        done = 0
        for block in blocks:
            if block.ndim != 2 or done + len(block) > len(ids):
                raise ProtocolError("embeddings are not one vector per record")
            if mat is None:
                mat = np.empty((start + len(ids), block.shape[1]),
                               dtype=np.float32)
            found = dims | {mat.shape[1], block.shape[1]}
            if len(found) > 1:
                raise ProtocolError(f"embeddings do not share one dimension: "
                                    f"{sorted(found)}")
            _scale(block, mat[start + done:start + done + len(block)],
                   ids[done:done + len(block)])
            done += len(block)
            yield block
        if done != len(ids):
            raise ProtocolError("embeddings are not one vector per record")

    vectors = write_spool(spool, len(ids), scaled(gateway.embed_blocks(
        [sample_text(r) for r in records])))
    rows = _Rows(parts + [(vectors, np.arange(len(ids)))], mat.shape[1])
    _fill(mat, rows, stand_ids)
    kept_at, removed = _dedup_exact(stand_ids + ids, mat, rows, threshold,
                                    start)
    kept = [records[p - start] for p in kept_at]
    logger.info("dedup kept %d of %d records (threshold %.3f)",
                len(kept), len(records), threshold)
    return DedupResult(kept=kept, removed=removed, vectors=vectors)
