"""Near-duplicate filtering: the tiled scan, the keep-first rule,
threshold ties, and the scan of new records after known rows.

The heavyweight planted-duplicate run lives in the acceptance suite; here the
same oracle is cross-checked at a size where failures are easy to read.
"""

import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from seedforge import dedup
from seedforge.dedup import (TIE_TOLERANCE, DedupResult, Known, Removal,
                             _dedup_exact, block_rows, dedup_filter,
                             read_removals, read_vectors, sample_text,
                             tile_width, write_removals)
from seedforge.errors import ParseError, ProtocolError, ValidationError
from seedforge.gateway import Gateway
from seedforge.gateway.mock import MockEmbedder


def rec(record_id, text):
    return SimpleNamespace(id=record_id, instruction=text, context=None,
                           output="o")


class VecGateway:
    """Maps each record's sample text to a preset vector, and embeds
    three texts to a block."""

    def __init__(self, table):
        self.table = table

    def embed_blocks(self, texts):
        for lo in range(0, len(texts), 3):
            yield np.array([self.table[t] for t in texts[lo:lo + 3]],
                           dtype=np.float64)


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    """Each test runs in a directory of its own, where run_filter and
    saved write their vectors files."""
    monkeypatch.chdir(tmp_path)


_FILES = itertools.count()


def run_filter(records, gateway, **kwargs):
    """dedup_filter, spooling to a new vectors file."""
    return dedup_filter(records, gateway, f"spool-{next(_FILES)}.npy",
                        **kwargs)


def saved(rows):
    """rows as a new vectors file, written by np.save."""
    path = f"saved-{next(_FILES)}.npy"
    np.save(path, np.asarray(rows, dtype=np.float64), allow_pickle=False)
    return read_vectors(path)


def loaded(vectors):
    return np.load(vectors.path, allow_pickle=False)


def scan(ids, raw, threshold, *args, **kwargs):
    """_dedup_exact over raw rows held in memory, screened by their
    float32 unit rows."""
    raw = np.asarray(raw, dtype=np.float64)
    mat = np.empty(raw.shape, dtype=np.float32)
    dedup._scale(raw, mat, ids)
    return _dedup_exact(ids, mat, raw, threshold, *args, **kwargs)


def table_gateway(pairs):
    """pairs: list of (record, vector). Returns (records, gateway)."""
    records = [r for r, _ in pairs]
    table = {sample_text(r): v for (r, v) in pairs}
    return records, VecGateway(table)


class TestSampleText:
    def test_joins_three_fields(self):
        r = SimpleNamespace(id="x", instruction="i", context="c",
                            output="o")
        assert sample_text(r) == "i\nc\no"

    def test_missing_context_leaves_empty_line(self):
        assert sample_text(rec("x", "i")) == "i\n\no"


def unit_rows(rows):
    mat = np.array(rows, dtype=np.float64)
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


class TestExactIndex:
    """The exact nearest-predecessor search, which is the blocked scan:
    exact similarities, no self-match, blocks larger than the corpus, an
    empty corpus, and rejected dimensions and zero vectors."""

    def test_nearest_values(self):
        ids = ["a-east", "b-north", "c-diag", "d-query"]
        unit = unit_rows([[1, 0], [0, 1], [1, 1], [1, 0.1]])
        for block in (1, 3, 8):
            kept, removed = scan(ids, unit, 0.95, block=block)
            assert kept == [0, 1, 2]
            (hit,) = removed
            assert (hit.record_id, hit.nearest_id) == ("d-query", "a-east")
            assert hit.similarity == pytest.approx(1 / math.sqrt(1.01),
                                                   abs=1e-12)

    def test_exclusion(self):
        # A record is never its own nearest: the self-similarity of 1.0
        # lies on the diagonal the scan leaves out.
        unit = unit_rows([[1, 0], [1, 0]])
        for block in (1, 2):
            assert scan(["a"], unit[:1], 0.95, block=block) == (
                [0], [])
            kept, removed = scan(["a", "b"], unit, 0.95, block=block)
            assert kept == [0]
            (hit,) = removed
            assert (hit.record_id, hit.nearest_id) == ("b", "a")
            assert hit.similarity == pytest.approx(1.0)

    def test_k_larger_than_size(self):
        ids = ["a", "b", "c"]
        unit = unit_rows([[1, 0], [0.99, 0.1], [0, 1]])
        for block in (3, 100, 2 ** 19):
            kept, removed = scan(ids, unit, 0.95, block=block)
            assert kept == [0, 2]
            assert [(r.record_id, r.nearest_id) for r in removed] == [
                ("b", "a")]

    def test_empty_index(self):
        assert scan([], np.empty((0, 3)), 0.95) == ([], [])

    def test_dim_mismatch(self):
        records, gw = table_gateway([(rec("r0", "a"), [1.0, 0.0]),
                                     (rec("r1", "b"), [0.0, 1.0])])
        with pytest.raises(ProtocolError, match="dimension"):
            run_filter(records[:1], gw,
                       known=Known(["r1"], [saved([[0.0, 1.0, 0.0]])],
                                   []))
        flat = SimpleNamespace(
            embed_blocks=lambda texts: [np.zeros(len(texts))])
        with pytest.raises(ProtocolError):
            run_filter(records, flat)
        short = SimpleNamespace(embed_blocks=lambda texts: [np.ones((1, 2))])
        with pytest.raises(ProtocolError):
            run_filter(records, short)

    def test_zero_vector(self):
        # A zero row is rejected where it enters, fresh or already known.
        records, gw = table_gateway([(rec("r0", "a"), [1.0, 0.0]),
                                     (rec("r1", "b"), [0.0, 1.0])])
        with pytest.raises(ValidationError, match="r0"):
            run_filter(records[1:], gw,
                       known=Known(["r0"], [saved([[0.0, 0.0]])], []))


def random_unit(rng, n, dim):
    mat = rng.normal(size=(n, dim))
    return mat / np.linalg.norm(mat, axis=1)[:, None]


def angled(theta):
    return [math.cos(theta), math.sin(theta)]


# cos(step) just above threshold, cos(2 * step) well below it
STEP = math.acos(0.96)


class TestCosine:
    """The similarity a removal reports is the cosine of the raw vectors."""

    def test_known_value(self):
        # cos 45 degrees between [1, 1] and [1, 0]
        records, gw = table_gateway([(rec("r0", "a"), [1.0, 1.0]),
                                     (rec("r1", "b"), [1.0, 0.0])])
        (hit,) = run_filter(records, gw, threshold=0.7).removed
        assert abs(hit.similarity - 1 / math.sqrt(2)) < 1e-9

    def test_extremes(self):
        # scaled parallel rows meet at 1.0; orthogonal and opposite rows
        # stay at any threshold.
        records, gw = table_gateway([(rec("r0", "a"), [2.0, 0.0]),
                                     (rec("r1", "b"), [5.0, 0.0]),
                                     (rec("r2", "c"), [0.0, 3.0]),
                                     (rec("r3", "d"), [0.0, -2.0])])
        result = run_filter(records, gw, threshold=1e-9)
        assert [(r.record_id, r.nearest_id) for r in result.removed] == [
            ("r1", "r0")]
        assert result.removed[0].similarity == pytest.approx(1.0)


class TestDedupFilter:
    def chain(self):
        # r0 and r1 are mutual near-dups; r2 duplicates r1 but not r0.
        pairs = [
            (rec("r0", "zero"), angled(0.0)),
            (rec("r1", "one"), angled(STEP)),
            (rec("r2", "two"), angled(2 * STEP)),
        ]
        return table_gateway(pairs)

    def test_keep_first_measures_against_kept_only(self):
        records, gw = self.chain()
        result = run_filter(records, gw)
        # r2 is above the threshold only against the removed r1.
        assert [r.id for r in result.kept] == ["r0", "r2"]
        (hit,) = result.removed
        assert (hit.record_id, hit.nearest_id) == ("r1", "r0")
        assert hit.similarity == pytest.approx(0.96)

    def test_threshold_boundary_is_strict(self):
        pairs = [
            (rec("r0", "zero"), [1.0, 0.0]),
            (rec("r1", "one"), [0.95, math.sqrt(1 - 0.95 ** 2)]),
        ]
        records, gw = table_gateway(pairs)
        result = run_filter(records, gw, threshold=0.95)
        assert len(result.kept) == 2
        assert result.removed == []

    def test_processes_in_id_order_regardless_of_input_order(self):
        records, gw = self.chain()
        result = run_filter(list(reversed(records)), gw)
        assert [r.id for r in result.kept] == ["r0", "r2"]
        assert [r.record_id for r in result.removed] == ["r1"]

    def test_idempotent(self):
        records, gw = self.chain()
        once = run_filter(records, gw)
        twice = run_filter(once.kept, gw)
        assert [r.id for r in twice.kept] == [r.id for r in once.kept]
        assert twice.removed == []

    def test_empty_input(self):
        result = run_filter([], VecGateway({}))
        assert result.kept == [] and result.removed == []

    def test_duplicate_ids_rejected(self):
        records, gw = self.chain()
        with pytest.raises(ValidationError):
            run_filter(records + [rec("r0", "zero")], gw)

    def test_parameter_validation(self):
        records, gw = self.chain()
        with pytest.raises(ValidationError):
            run_filter(records, gw, threshold=0.0)
        with pytest.raises(ValidationError):
            run_filter(records, gw, threshold=1.5)

    def test_zero_norm_embedding_names_the_record(self):
        records, gw = table_gateway([(rec("rz", "z"), [0.0, 0.0])])
        with pytest.raises(ValidationError, match="rz"):
            run_filter(records, gw)

    def test_raw_vector_scale_does_not_matter(self):
        ids, base, records, gw = TestOracleEquivalence().planted_corpus(
            n=60, dups=10, dim=8)
        scales = np.linspace(0.01, 100.0, len(ids))
        scaled = VecGateway({sample_text(r): (base[i] * scales[i]).tolist()
                             for i, r in enumerate(records)})
        plain = run_filter(records, gw)
        other = run_filter(records, scaled)
        assert [r.id for r in other.kept] == [r.id for r in plain.kept]
        assert [(r.record_id, r.nearest_id) for r in other.removed] == [
            (r.record_id, r.nearest_id) for r in plain.removed]
        for got, want in zip(other.removed, plain.removed):
            assert got.similarity == pytest.approx(want.similarity,
                                                   abs=1e-12)

    def test_scalar_embeddings_rejected(self):
        records, gw = table_gateway([(rec("r0", "a"), 1.0),
                                     (rec("r1", "b"), 2.0)])
        with pytest.raises(ProtocolError):
            run_filter(records, gw)

    def test_mock_gateway_end_to_end(self, gateway):
        records = [
            rec("r0", "วัดอรุณตั้งอยู่ริมแม่น้ำเจ้าพระยา"),
            rec("r1", "วัดอรุณตั้งอยู่ริมแม่น้ำเจ้าพระยา"),
            rec("r2", "completely different subject matter entirely"),
        ]
        result = run_filter(records, gateway)
        assert [r.id for r in result.kept] == ["r0", "r2"]
        assert result.removed[0].similarity == pytest.approx(1.0)

    def test_result_shape(self):
        records, gw = self.chain()
        result = run_filter(records, gw)
        assert isinstance(result, DedupResult)
        assert all(isinstance(r, Removal) for r in result.removed)


def oracle_keep_first(ids, unit_rows, threshold):
    """Quadratic restatement of the rule, written without the scan."""
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    kept, removed = [], {}
    for i in order:
        best_j, best_sim = None, -2.0
        for j in kept:
            sim = float(np.dot(unit_rows[i], unit_rows[j]))
            if sim > best_sim:
                best_j, best_sim = j, sim
        if best_j is not None and best_sim > threshold:
            removed[ids[i]] = (ids[best_j], best_sim)
        else:
            kept.append(i)
    return [ids[i] for i in kept], removed


class TestOracleEquivalence:
    def planted_corpus(self, n=240, dups=40, dim=32, seed=13):
        rng = np.random.default_rng(seed)
        base = random_unit(rng, n, dim)
        for k in range(dups):
            src = k * 2
            noisy = base[src] + 0.02 * rng.normal(size=dim)
            base[n - 1 - k] = noisy / np.linalg.norm(noisy)
        ids = [f"t{i:04d}-r00-closed_qa-00" for i in range(n)]
        pairs = [(rec(ids[i], f"text {i}"), base[i].tolist())
                 for i in range(n)]
        records, gw = table_gateway(pairs)
        return ids, base, records, gw

    def test_exact_filter_matches_oracle(self):
        ids, base, records, gw = self.planted_corpus()
        want_kept, want_removed = oracle_keep_first(ids, base, 0.95)
        result = run_filter(records, gw)
        assert [r.id for r in result.kept] == want_kept
        assert {r.record_id for r in result.removed} == set(want_removed)
        for removal in result.removed:
            nearest, sim = want_removed[removal.record_id]
            assert removal.nearest_id == nearest
            assert removal.similarity == pytest.approx(sim, abs=1e-9)


def per_row_reference(ids, unit, threshold):
    """The rule one row at a time: row i against the kept rows. Over the
    threshold means beyond threshold + TIE_TOLERANCE; the nearest is the
    earliest row within TIE_TOLERANCE of the best similarity."""
    kept, removed = [], []
    for i in range(len(ids)):
        sims = unit[kept] @ unit[i] if kept else np.empty(0)
        over = [k for k, sim in enumerate(sims)
                if sim > threshold + TIE_TOLERANCE]
        if not over:
            kept.append(i)
            continue
        best = max(sims[k] for k in over)
        k = next(k for k in over if sims[k] >= best - TIE_TOLERANCE)
        removed.append(Removal(ids[i], ids[kept[k]], float(sims[k])))
    return kept, removed


def chained_corpus():
    """32 random rows plus an angle chain at rows 5..8: each chain step is
    just above 0.95 from the previous one, two steps are far below. Row 6
    (a removal) is the last row of a 7-row block, row 7 (kept, since its
    only near predecessor is the removed row 6) the first of the next."""
    rng = np.random.default_rng(3)
    unit = random_unit(rng, 32, 8)
    axis, other = random_unit(rng, 2, 8)
    ortho = other - (other @ axis) * axis
    ortho /= np.linalg.norm(ortho)
    for step, row in enumerate(range(5, 9)):
        theta = step * STEP
        unit[row] = math.cos(theta) * axis + math.sin(theta) * ortho
    noisy = unit[20] + 0.01 * rng.normal(size=8)
    unit[27] = noisy / np.linalg.norm(noisy)
    ids = [f"r{i:03d}" for i in range(len(unit))]
    return ids, unit


class TestBlockedScan:
    @pytest.mark.parametrize("block", [1, 7, 40])
    def test_equals_per_row_reference(self, block):
        ids, unit = chained_corpus()
        want_kept, want_removed = per_row_reference(ids, unit, 0.95)
        kept, removed = scan(ids, unit, 0.95, block=block)
        assert kept == want_kept
        assert [(r.record_id, r.nearest_id) for r in removed] == [
            (r.record_id, r.nearest_id) for r in want_removed]
        for got, want in zip(removed, want_removed):
            assert got.similarity == pytest.approx(want.similarity,
                                                   abs=1e-12)

    def test_the_chain_crosses_a_block_boundary(self):
        ids, unit = chained_corpus()
        _, removed = scan(ids, unit, 0.95, block=7)
        assert [(r.record_id, r.nearest_id) for r in removed] == [
            ("r006", "r005"), ("r008", "r007"), ("r027", "r020")]

    def test_planted_corpus_at_every_block_size(self):
        rng = np.random.default_rng(8)
        unit = random_unit(rng, 150, 16)
        for k in range(30):
            noisy = unit[k] + 0.05 * rng.normal(size=16)
            unit[149 - k] = noisy / np.linalg.norm(noisy)
        ids = [f"r{i:03d}" for i in range(150)]
        want = per_row_reference(ids, unit, 0.9)
        for block in (1, 7, 64, 151):
            kept, removed = scan(ids, unit, 0.9, block=block)
            assert kept == want[0]
            assert [r.nearest_id for r in removed] == [
                r.nearest_id for r in want[1]]

    def test_block_rows_bound_the_slab(self):
        assert block_rows(5_000) == 2 ** 19 // 5_000
        assert block_rows(10 ** 6) == 16
        assert block_rows(1) == 2 ** 19
        assert tile_width(5_000) == 1024 and tile_width(300) == 300
        assert block_rows(tile_width(10 ** 6)) * 1024 == 2 ** 19


def distinct_bucket_words(embedder, count):
    """Words that each land in a bucket of their own under embedder."""
    words, buckets = [], set()
    for k in range(1000):
        word = f"w{k}"
        (vec,) = embedder.embed_batch([word])
        bucket = int(np.flatnonzero(vec.values)[0])
        if bucket not in buckets:
            buckets.add(bucket)
            words.append(word)
            if len(words) == count:
                return words
    raise AssertionError("not enough distinct buckets")


class TestThresholdTies:
    """Texts of five one-bucket words sharing four: their mock cosine is
    4/5, exactly the threshold, and the float result of the dot product
    depends on summation order."""

    def corpus(self):
        words = distinct_bucket_words(MockEmbedder(dim=256), 30)
        records = []
        for g in range(5):
            common = " ".join(words[6 * g:6 * g + 4])
            for tail in (4, 5):
                records.append(rec(f"g{g}-{tail}",
                                   f"{common} {words[6 * g + tail]}"))
        # rec() gives every record the output "o", a sixth shared word;
        # drop it so only the five instruction words are embedded.
        for r in records:
            r.output = ""
        return records

    def test_records_sit_exactly_at_the_threshold(self, gateway):
        records = self.corpus()
        mat = gateway.embed([sample_text(r) for r in records])
        for a, b in zip(mat[0::2], mat[1::2]):
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cos == pytest.approx(0.8, abs=1e-15)

    def test_every_block_size_keeps_the_ties(self, gateway):
        records = sorted(self.corpus(), key=lambda r: r.id)
        ids = [r.id for r in records]
        mat = gateway.embed([sample_text(r) for r in records])
        unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        for block in (1, 2, 3, 7, len(ids)):
            kept, removed = scan(ids, unit, 0.8, block=block)
            assert kept == list(range(len(ids)))
            assert removed == []
            kept, removed = scan(ids, unit, 0.8 - 1e-9, block=block)
            assert [r.record_id for r in removed] == ids[1::2]


class CountingGateway(VecGateway):
    def __init__(self, table):
        super().__init__(table)
        self.embedded = []

    def embed_blocks(self, texts):
        self.embedded.extend(texts)
        return super().embed_blocks(texts)


def known_from(result: DedupResult, records) -> Known:
    """The Known rows of an earlier dedup_filter call over `records`."""
    return Known(sorted(r.id for r in records), [result.vectors],
                 result.removed)


class TestKnownVectors:
    def test_only_unknown_records_are_embedded(self):
        records, gw = TestDedupFilter().chain()
        gw = CountingGateway(gw.table)
        first = run_filter(records[:2], gw)
        gw.embedded.clear()
        again = run_filter(records[2:], gw,
                           known=known_from(first, records[:2]))
        assert gw.embedded == [sample_text(records[2])]
        plain = run_filter(records, VecGateway(gw.table))
        assert [r.id for r in first.kept + again.kept] == [
            r.id for r in plain.kept]
        assert first.removed + again.removed == plain.removed
        assert np.array_equal(loaded(again.vectors), loaded(plain.vectors)[2:])

    def test_all_records_known_embeds_nothing(self):
        records, gw = TestDedupFilter().chain()
        gw = CountingGateway(gw.table)
        first = run_filter(records, gw)
        gw.embedded.clear()
        again = run_filter([], gw, known=known_from(first, records))
        assert gw.embedded == []
        assert again.kept == [] and again.removed == []
        assert len(again.vectors) == 0

    def test_a_known_record_is_not_decided_again(self):
        records, gw = TestDedupFilter().chain()
        first = run_filter(records[:2], gw)
        with pytest.raises(ValidationError, match="r1"):
            run_filter(records[1:], gw,
                       known=known_from(first, records[:2]))

    def test_vectors_follow_id_order(self):
        records, gw = TestDedupFilter().chain()
        result = run_filter(list(reversed(records)), gw)
        want = [gw.table[sample_text(r)] for r in records]
        assert np.array_equal(loaded(result.vectors), np.array(want))

    def test_dimension_disagreement_is_protocol_error(self):
        records, gw = TestDedupFilter().chain()
        with pytest.raises(ProtocolError, match="dimension"):
            run_filter(records[1:], gw,
                       known=Known(["r0"], [saved([[1.0, 0.0, 0.0]])],
                                   []))

    def test_vector_rows_must_match_known_ids(self):
        records, gw = TestDedupFilter().chain()
        with pytest.raises(ProtocolError, match="known"):
            run_filter(records[2:], gw,
                       known=Known(["r0", "r1"], [saved(np.ones((1, 2)))], []))

    def test_a_known_block_without_records_is_skipped(self):
        # An epoch that generated no records left a (0, 0) block.
        records, gw = TestDedupFilter().chain()
        first = run_filter(records[:2], gw)
        rows = loaded(first.vectors)
        known = Known([r.id for r in records[:2]],
                      [saved(np.empty((0, 0))), saved(rows[:1]),
                       saved(np.empty((0, 0))), saved(rows[1:])],
                      first.removed)
        again = run_filter(records[2:], gw, known=known)
        plain = run_filter(records, gw)
        assert [r.id for r in first.kept + again.kept] == [
            r.id for r in plain.kept]
        assert first.removed + again.removed == plain.removed

    def test_assembly_copies_no_known_block(self, monkeypatch, peak):
        # The float32 unit matrix is the one copy of the rows: reading the
        # known files' standing rows and the new rows into it takes one
        # float64 slab of slack at a time and the ids' bookkeeping, less
        # than half a known block, never a copy of a known block or a
        # float64 matrix.
        monkeypatch.setattr(dedup, "SLAB_ELEMENTS", 2 ** 12)
        rng = np.random.default_rng(8)
        blocks = [rng.normal(size=(1500, 64)) for _ in range(3)]
        ids = [f"r{i:05d}" for i in range(4500)]
        removed = [Removal(rid, ids[0], 1.0) for rid in ids[1::10]]
        fresh = rng.normal(size=(300, 64))
        new_ids = [f"s{i:05d}" for i in range(300)]
        known = Known(ids, [saved(block) for block in blocks], removed)
        spooled = saved(fresh)

        def assemble():
            parts, stand_ids, _ = dedup._standing(known)
            rows = dedup._Rows(parts + [(spooled, np.arange(300))], 64)
            mat = np.empty((len(stand_ids) + 300, 64), dtype=np.float32)
            dedup._fill(mat, rows, stand_ids + new_ids)
            return rows, stand_ids, mat

        (rows, stand_ids, mat), used = peak(assemble)
        assert mat.shape == (4500 - len(removed) + 300, 64)
        assert used <= mat.nbytes + blocks[0].nbytes // 2
        gone = {r.record_id for r in removed}
        keep = [i for i, rid in enumerate(ids) if rid not in gone]
        assert stand_ids == [ids[i] for i in keep]
        want = np.concatenate(blocks + [fresh])[
            keep + list(range(4500, 4800))]
        assert np.array_equal(rows[np.arange(len(want))], want)
        at = np.array([0, 1349, 1350, 2699, 2700, 4049, 4050, 4349])
        assert np.array_equal(rows[at], want[at])
        unit = want / np.linalg.norm(want, axis=1, keepdims=True)
        assert np.array_equal(mat, unit.astype(np.float32))

    def test_a_scan_holds_no_float64_matrix(self, monkeypatch, peak):
        # dedup_filter over 3,000 new rows after two known epochs holds
        # the float32 matrix, two float64 slabs and the ids' bookkeeping;
        # never the reply or a known epoch as one float64 array.
        monkeypatch.setattr(dedup, "SLAB_ELEMENTS", 2 ** 12)
        gw = Gateway.mock(embed_dim=64)
        rng = np.random.default_rng(4)
        texts = [" ".join(f"w{k}" for k in rng.integers(0, 3000, size=6))
                 for _ in range(9000)]
        # Every tenth text of an epoch repeats one of the epoch before.
        texts[3000:6000:10] = texts[0:3000:10]
        texts[6005::10] = texts[3005:6000:10]
        epochs = [[rec(f"e{e}-{i:05d}", texts[3000 * e + i])
                   for i in range(3000)] for e in range(3)]
        known = Known([], [], [])
        for epoch in epochs[:2]:
            first = run_filter(epoch, gw, threshold=0.9, known=known)
            known = Known(known.ids + sorted(r.id for r in epoch),
                          known.vectors + [first.vectors],
                          known.removed + first.removed)
        result, used = peak(run_filter, epochs[2], gw, threshold=0.9,
                            known=known)
        assert known.removed and result.removed
        screen = (len(known.ids) - len(known.removed) + 3000) * 64 * 4
        slab = 2 ** 12 * 8
        reply = 3000 * 64 * 8
        assert used <= screen + 2 * slab + reply // 2


def planted_epochs(seed, n_old, n_new, dim=12, dups=12, first=0):
    """Unit rows for n_old + n_new ids from topic index first on, with
    near-duplicates planted within each epoch and across the boundary, in
    both directions of id order; a chain of them crosses the boundary
    too."""
    rng = np.random.default_rng(seed)
    unit = random_unit(rng, n_old + n_new, dim)
    for k in range(dups):
        src = int(rng.integers(0, n_old + n_new - 1))
        dst = int(rng.integers(src + 1, n_old + n_new))
        noisy = unit[src] + 0.05 * rng.normal(size=dim)
        unit[dst] = noisy / np.linalg.norm(noisy)
    axis, other = random_unit(rng, 2, dim)
    ortho = other - (other @ axis) * axis
    ortho /= np.linalg.norm(ortho)
    for step, row in enumerate(range(n_old - 2, n_old + 2)):
        theta = step * STEP
        unit[row] = math.cos(theta) * axis + math.sin(theta) * ortho
    ids = [f"t{first + i:04d}-r00" for i in range(n_old + n_new)]
    return ids, unit


def ordered_cosine(a, b):
    """The cosine dedup decides by, restated one component at a time: the
    products summed in component order, over the product of the norms,
    whose squares are summed the same way."""
    dot = aa = bb = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        dot += x * y
        aa += x * x
        bb += y * y
    return dot / (math.sqrt(aa) * math.sqrt(bb))


def float64_brute_force(ids, raw, threshold):
    """per_row_reference over raw rows, every pair by ordered_cosine."""
    kept, removed = [], []
    for i in range(len(ids)):
        over = [(sim, j) for j in kept
                if (sim := ordered_cosine(raw[i], raw[j]))
                > threshold + TIE_TOLERANCE]
        if not over:
            kept.append(i)
            continue
        best = max(sim for sim, _ in over)
        sim, j = next((sim, j) for sim, j in over
                      if sim >= best - TIE_TOLERANCE)
        removed.append(Removal(ids[i], ids[j], sim))
    return kept, removed


# How far from the cut the planted pairs' cosines sit.
CUT_OFFSETS = (0.0, 1e-7, -1e-7, 1e-5, -1e-5, 1e-4, -1e-4)


def planted_at_the_cut(dim, threshold, seed, pairs_per_offset=3):
    """Raw rows at random scales: random rows, then for each offset pairs
    (u, v) of rows whose cosine is the cut plus that offset, u and v in a
    random plane. Ids follow the rows, so every v comes after its u."""
    rng = np.random.default_rng(seed)
    cut = threshold + TIE_TOLERANCE
    rows = list(random_unit(rng, 10, dim))
    for offset in CUT_OFFSETS:
        cos = cut + offset
        for _ in range(pairs_per_offset):
            u, w = random_unit(rng, 2, dim)
            w -= (w @ u) * u
            w /= np.linalg.norm(w)
            rows += [u, cos * u + math.sqrt(1.0 - cos * cos) * w]
    raw = np.array(rows) * rng.uniform(0.1, 10.0, size=(len(rows), 1))
    return [f"r{i:03d}" for i in range(len(raw))], raw


class TestFloat32Screen:
    """The float32 tiles only screen: every decision and every similarity
    is the float64 one."""

    @pytest.mark.parametrize("dim", [8, 256, 1024])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_the_screen_never_misses(self, dim, seed):
        ids, raw = planted_at_the_cut(dim, 0.9, seed)
        kept, removed = scan(ids, raw, 0.9)
        assert (kept, removed) == float64_brute_force(ids, raw, 0.9)
        assert {r.record_id for r in removed} >= {
            ids[i] for i in range(11, len(ids), 2)
            if CUT_OFFSETS[(i - 11) // 6] > 1e-8}

    def test_the_margin_covers_the_float32_rounding(self):
        # About 4 * (dim + 2) float32 unit roundoffs: 6.2e-5 at 256.
        assert dedup.screen_margin(256) == pytest.approx(
            4 * 258 * 2.0 ** -24, rel=1e-4)
        assert dedup.screen_margin(8) < dedup.screen_margin(1024) < 3e-4

    def test_tile_shape_does_not_move_a_float(self):
        rng = np.random.default_rng(9)
        unit = random_unit(rng, 300, 256)
        for k in range(60):
            noisy = unit[k] + 0.3 * rng.normal(size=256) / 16
            unit[299 - k] = noisy / np.linalg.norm(noisy)
        ids = [f"r{i:03d}" for i in range(300)]
        want = scan(ids, unit, 0.9)
        assert len(want[1]) > 30
        for block, width in ((1, 1), (3, 7), (16, 5), (7, 200), (200, 9),
                             (64, 300)):
            assert scan(ids, unit, 0.9, 0, block, width) == want
        start = 200
        rows = [i for i in want[0] if i < start] + list(range(start, 300))
        late = [r for r in want[1] if r.record_id >= ids[start]]
        for block, width in ((1, 1), (5, 13), (100, 400)):
            kept, removed = scan(
                [ids[r] for r in rows], unit[rows], 0.9,
                len(rows) - 100, block, width)
            assert removed == late


class TestIncrementalScan:
    """A dedup_filter over new rows after earlier rows, passed as known,
    gives what one full scan of all rows gives."""

    def epochs(self, seed, n_old=70, n_new=50, first=0):
        ids, unit = planted_epochs(seed, n_old, n_new, first=first)
        records = [rec(rid, f"text {rid}") for rid in ids]
        gw = CountingGateway({sample_text(r): unit[i].tolist()
                              for i, r in enumerate(records)})
        return ids, unit, records[:n_old], records[n_old:], gw

    @pytest.mark.parametrize("slab", [2 ** 4, 2 ** 7, 2 ** 10, 2 ** 19])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_the_full_scan(self, monkeypatch, slab, seed):
        monkeypatch.setattr(dedup, "SLAB_ELEMENTS", slab)
        ids, unit, old, new, gw = self.epochs(seed)
        want_kept, want_removed = scan(ids, unit, 0.9)
        assert want_removed, "the corpus plants no removal"
        first = run_filter(old, gw, threshold=0.9)
        gw.embedded.clear()
        result = run_filter(new, gw, threshold=0.9,
                            known=known_from(first, old))
        assert gw.embedded == [sample_text(r) for r in new]
        assert [r.id for r in first.kept + result.kept] == [
            ids[i] for i in want_kept]
        removed = first.removed + result.removed
        assert [(r.record_id, r.nearest_id) for r in removed] == [
            (r.record_id, r.nearest_id) for r in want_removed]
        for got, want in zip(removed, want_removed):
            assert got.similarity == pytest.approx(want.similarity,
                                                   abs=1e-12)
        assert result.vectors.shape == (len(new), unit.shape[1])

    def test_scan_from_start_at_every_tile_shape(self):
        ids, unit = planted_epochs(4, 60, 40)
        want = per_row_reference(ids, unit, 0.9)
        rows = [i for i in want[0] if i < 60] + list(range(60, 100))
        start = len(rows) - 40
        for block, width in ((1, 1), (3, 7), (16, 5), (7, 200), (200, 9)):
            kept, removed = scan([ids[r] for r in rows], unit[rows],
                                 0.9, start, block, width)
            assert [rows[p] for p in kept] == [i for i in want[0]
                                               if i >= 60]
            assert [(r.record_id, r.nearest_id) for r in removed] == [
                (r.record_id, r.nearest_id) for r in want[1]
                if r.record_id >= ids[60]]

    def test_new_ids_that_sort_before_known_ones(self, monkeypatch):
        # Known ids run up to t9999 and the new ones, from t10000 on, sort
        # before most of them; then old and new ids alternate. Either way
        # the new rows are decided after the known ones, in id order.
        scans = []
        real = dedup._dedup_exact

        def spy(ids, mat, rows, threshold, start=0, *args):
            scans.append((len(ids), start))
            return real(ids, mat, rows, threshold, start, *args)

        monkeypatch.setattr(dedup, "_dedup_exact", spy)
        for first_topic in (9930, 0):
            ids, unit, old, new, gw = self.epochs(5, first=first_topic)
            if not first_topic:
                both = old + new
                old, new = both[0::2], both[1::2]
            first = run_filter(old, gw, threshold=0.9)
            gw.embedded.clear()
            scans.clear()
            result = run_filter(new, gw, threshold=0.9,
                                known=known_from(first, old))
            assert gw.embedded == [sample_text(r) for r in new]
            assert scans == [(len(first.kept) + len(new), len(first.kept))]
            assert {r.record_id for r in result.removed} <= {
                r.id for r in new}
            order = [ids.index(r.id) for r in old + new]
            kept, removed = per_row_reference(
                [ids[i] for i in order], unit[order], 0.9)
            assert removed, "the corpus plants no removal"
            assert [r.id for r in first.kept + result.kept] == [
                ids[order[k]] for k in kept]
            got = first.removed + result.removed
            assert [(r.record_id, r.nearest_id) for r in got] == [
                (r.record_id, r.nearest_id) for r in removed]
            for mine, want in zip(got, removed):
                assert mine.similarity == pytest.approx(want.similarity,
                                                        abs=1e-12)

    def test_rerolled_epochs_are_decided_in_epoch_order(self):
        # Three epochs re-roll the same topics under new round numbers, so
        # each epoch's ids sort between the earlier epochs' ids. Each
        # epoch is decided after every earlier one, whose rows are known
        # as one block per epoch and whose removals stand: what one scan
        # in epoch order decides, including removals by an earlier
        # epoch's record whose id sorts after the removed one.
        rng = np.random.default_rng(6)
        topics, rounds, dim = 30, 3, 12
        unit = random_unit(rng, topics * rounds, dim)
        for _ in range(24):
            src, dst = sorted(rng.choice(len(unit), 2, replace=False))
            noisy = unit[src] + 0.05 * rng.normal(size=dim)
            unit[dst] = noisy / np.linalg.norm(noisy)
        ids = [f"t{i:04d}-r{e:02d}" for e in range(rounds)
               for i in range(topics)]
        records = [rec(rid, f"text {rid}") for rid in ids]
        gw = VecGateway({sample_text(r): unit[k].tolist()
                         for k, r in enumerate(records)})
        known, kept = Known([], [], []), []
        for e in range(rounds):
            epoch = records[e * topics:(e + 1) * topics]
            result = run_filter(epoch, gw, threshold=0.9, known=known)
            kept += result.kept
            known = Known(known.ids + [r.id for r in epoch],
                          known.vectors + [result.vectors],
                          known.removed + result.removed)
        want_kept, want_removed = per_row_reference(ids, unit, 0.9)
        assert any(r.nearest_id > r.record_id for r in want_removed)
        assert [r.id for r in kept] == [ids[k] for k in want_kept]
        assert [(r.record_id, r.nearest_id) for r in known.removed] == [
            (r.record_id, r.nearest_id) for r in want_removed]
        for got, want in zip(known.removed, want_removed):
            assert got.similarity == pytest.approx(want.similarity,
                                                   abs=1e-12)


class TestRemovalsFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "removed.json")
        removed = [Removal("b", "a", 0.9731), Removal("d", "c", 1.0)]
        sha = write_removals(removed, path)
        assert len(sha) == 64
        assert read_removals(path) == removed
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)[0] == {
                "record_id": "b", "nearest_id": "a", "similarity": 0.9731}

    @pytest.mark.parametrize("body", ['{"a": 1}', '[{"record_id": "b"}]',
                                      '[{"record_id": 1, "nearest_id": "a",'
                                      ' "similarity": 0.9}]', "[1]"])
    def test_malformed_file_is_a_parse_error(self, tmp_path, body):
        path = tmp_path / "removed.json"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ParseError, match="removals"):
            read_removals(str(path))


class TestVectorsFile:
    def test_a_short_file_is_a_parse_error(self):
        vectors = saved(np.ones((4, 3)))
        with open(vectors.path, "r+b") as handle:
            handle.truncate(vectors.offset + 3 * 3 * 8 + 5)
        out = np.empty((2, 3))
        vectors.read(np.array([1, 2]), out)
        assert np.array_equal(out, np.ones((2, 3)))
        with pytest.raises(ParseError, match="fewer rows"):
            vectors.read(np.array([2, 3]), out)

    @pytest.mark.parametrize("rows", [np.ones((2, 3), dtype=np.float32),
                                      np.ones(3), np.ones((2, 3)).T])
    def test_only_c_ordered_float64_rows_are_read(self, rows):
        np.save("other.npy", rows, allow_pickle=False)
        with pytest.raises(ParseError, match="not a vectors file"):
            read_vectors("other.npy")

