"""Text similarity metrics implemented from first principles.

Everything here is deterministic and depends on nothing but numpy, which
counts n-grams and scores embeddings. Word-level metrics take a tokenizer
argument because Thai has no space-delimited words; the character
tokenizer is the honest default there.

Conventions that differ between published implementations are pinned here:

* every n-gram overlap (rouge_n, bleu, chrf, squad_f1) is clipped: each
  distinct n-gram counts as often as it occurs on the side where it is
  rarer. chrf counts characters with whitespace removed; the others count
  tokens, and squad_f1 its own casefolded, punctuation-free tokens. One
  kernel, overlap_counts, counts a list of pairs at once, and each of the
  four is a formula of those counts (rouge_n_score, bleu_score,
  chrf_score, squad_f1_score) that the report applies to its own tables.
* n-gram orders whose denominator is zero (the text is shorter than the
  order) are excluded from geometric or arithmetic means instead of
  contributing zero, so scoring a text against itself yields the maximum.
* An order with a zero numerator but nonzero denominator stays in the
  mean, so an unsmoothed corpus score can still collapse to zero.
* Empty-vs-empty comparisons return the metric's maximum for the overlap
  metrics that define it (chrf, squad_f1, the embedding scorer) and zero
  elsewhere; empty-vs-nonempty is always zero.
* rouge_l reads its LCS length off the last bit-parallel LCS row, and
  rouge_lsum backtracks through all of them. bert_like_score is handed
  unit-length rows; it embeds and normalises nothing itself.
"""

from __future__ import annotations

import heapq
import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from seedforge.errors import ValidationError
from seedforge.tokenizers import SpaceOutTable, Tokenizer, unicode_words

# What n-grams are made of: the characters of a string or the tokens of a
# list.
Symbols = str | list[str]


@dataclass(frozen=True)
class Score:
    precision: float
    recall: float
    f1: float


def _fmeasure(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# Symbols counted together by _overlap_table. On one system's 100 pairs of
# the benchmark's seed-1 eval input (46,922 characters; 2-vCPU Xeon,
# numpy 2.4, best of 7), characters at orders 1-6 took 18.4 ms with
# 2,048-symbol blocks, 15.5 ms at 8,192, 18.3 ms at 16,384 and 17.8 ms
# unbounded (30.3 ms one pair at a time), and unbounded blocks raised
# that eval's peak RSS from 42.5 to 47.4 MB.
BLOCK_SYMBOLS = 8192


class Counts(NamedTuple):
    """A pair's clipped n-gram overlap at orders 1..len(overlaps), and
    the number of symbols on each side."""
    overlaps: list[int]
    pred_len: int
    ref_len: int


def overlap_counts(pairs: list[tuple[Symbols, Symbols]], max_order: int
                   ) -> list[Counts]:
    """Counts of each (pred, ref) pair of symbol sequences: characters
    for strings, tokens for lists."""
    table = _overlap_table(pairs, max_order).tolist()
    return [Counts(row, len(a), len(b)) for row, (a, b) in zip(table, pairs)]


def _overlap_table(pairs: list[tuple[Symbols, Symbols]], max_order: int
                   ) -> np.ndarray:
    """Clipped n-gram overlap of each pair at each order 1..max_order:
    for each n-gram, the smaller of its counts in a and in b, summed. An
    order that either side is too short for has overlap 0.

    Consecutive pairs are counted together in blocks of at most
    BLOCK_SYMBOLS symbols; a longer pair is a block by itself. Returns
    an int64 array of shape (len(pairs), max_order).
    """
    table = np.zeros((len(pairs), max_order), dtype=np.int64)
    sizes = [len(a) + len(b) for a, b in pairs]
    start = 0
    while start < len(pairs):
        stop, size = start + 1, sizes[start]
        while (stop < len(pairs)
               and size + sizes[stop] <= BLOCK_SYMBOLS):
            size += sizes[stop]
            stop += 1
        _count_block(pairs[start:stop], table[start:stop])
        start = stop
    return table


def _count_block(pairs: list[tuple[Symbols, Symbols]], table: np.ndarray
                 ) -> None:
    """Fill table, one row per pair, with the pairs' overlaps.

    Every symbol of the block gets a dense id below k: the symbols of a
    string are its characters, lone surrogates (which JSON can carry)
    included; those of a list are its tokens. Every n-gram is a dense
    integer rank. The key of an order-1 n-gram is pair * k + id, so no
    two pairs share a rank; that of an order-n n-gram is rank * k + id:
    the rank of its first n-1 symbols, then the id of its last. One
    np.unique over the block's keys ranks them again, so a key stays
    below k times the block's symbols or pairs, whichever is more, and no
    alphabet can overflow int64. A rank's overlap is the smaller of its
    two sides' counts, and one bincount over each rank's pair sums them
    per pair. Only an n-gram whose prefix is shared and that ends inside
    its own text goes on to the next order.
    """
    lengths = [len(side) for pair in pairs for side in pair]
    if isinstance(pairs[0][0], str):
        # int64 like the keys: each dtype np.unique sorts pages in its own
        # sort code, which shows in peak RSS
        text = "".join(side for pair in pairs for side in pair)
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                               dtype="<u4").astype(np.int64)
        alphabet, ids = np.unique(points, return_inverse=True)
        k = len(alphabet)
    else:
        index: dict[str, int] = {}
        ids = np.array([index.setdefault(token, len(index))
                        for pair in pairs for side in pair for token in side],
                       dtype=np.int64)
        k = len(index)
    owner_text = np.repeat(np.arange(len(lengths)), lengths)
    pair, side = owner_text >> 1, owner_text & 1
    end = np.cumsum(lengths)[owner_text]
    pos = np.arange(len(ids))
    keys = pair * k + ids
    for n in range(1, table.shape[1] + 1):
        uniq, rank = np.unique(keys, return_inverse=True)
        common = np.bincount(rank * 2 + side[pos], minlength=2 * len(uniq)
                             ).reshape(-1, 2).min(axis=1)
        owner = np.empty(len(uniq), dtype=np.int64)
        owner[rank] = pair[pos]
        table[:, n - 1] = np.bincount(owner, weights=common,
                                      minlength=len(pairs))
        live = (common[rank] > 0) & (pos + n < end[pos])
        pos, rank = pos[live], rank[live]
        if not len(pos):
            break
        keys = rank * k + ids[pos + n]


# -- ROUGE ------------------------------------------------------------------

def rouge_n(pred: str, ref: str, n: int = 1,
            tokenizer: Tokenizer = unicode_words) -> Score:
    """Clipped n-gram overlap."""
    if n < 1:
        raise ValidationError(f"n-gram order must be >= 1, got {n}")
    return rouge_n_score(
        overlap_counts([(tokenizer(pred), tokenizer(ref))], n)[0], n)


def rouge_n_score(counts: Counts, n: int) -> Score:
    """ROUGE-n of a pair's token counts at order n or above."""
    pred_total = counts.pred_len - n + 1
    ref_total = counts.ref_len - n + 1
    if pred_total <= 0 or ref_total <= 0:
        return Score(0.0, 0.0, 0.0)
    overlap = counts.overlaps[n - 1]
    precision = overlap / pred_total
    recall = overlap / ref_total
    return Score(precision, recall, _fmeasure(precision, recall))


def _lcs_rows(a: list[str], b: list[str]):
    """Rows 0..len(a) of the LCS table of a and b, bit-parallel (Allison
    & Dix 1986, in the form of Hyyrö 2004).

    Bit j of masks[t] is set where b[j] == t. A row starts as len(b) ones
    and, after each token of a, holds a zero at every column where that
    row of the table steps up: LCS(a[:i], b[:j]) is the count of zero bits
    among the low j bits of row i.
    """
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    yield v
    for token in a:
        u = v & masks.get(token, 0)
        v = ((v + u) | (v - u)) & full
        yield v


def _lcs_length(a: list[str], b: list[str]) -> int:
    """LCS length of a and b, from the last row alone."""
    for v in _lcs_rows(a, b):
        pass
    return len(b) - v.bit_count()


def _lcs_indices(a: list[str], b: list[str]) -> set[int]:
    """Indices into a of one longest common subsequence with b, by
    backtracking through every row: on a mismatch, step up only when the
    cell above is larger than the cell to the left."""
    rows = list(_lcs_rows(a, b))

    def lcs(i: int, j: int) -> int:
        return j - (rows[i] & ((1 << j) - 1)).bit_count()

    i, j = len(a), len(b)
    picked: set[int] = set()
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            picked.add(i - 1)
            i -= 1
            j -= 1
        elif lcs(i - 1, j) > lcs(i, j - 1):
            i -= 1
        else:
            j -= 1
    return picked


def rouge_l(pred: str, ref: str,
            tokenizer: Tokenizer = unicode_words) -> Score:
    """Longest common subsequence overlap on whole texts."""
    pred_tokens = tokenizer(pred)
    ref_tokens = tokenizer(ref)
    if not pred_tokens or not ref_tokens:
        return Score(0.0, 0.0, 0.0)
    lcs = _lcs_length(pred_tokens, ref_tokens)
    precision = lcs / len(pred_tokens)
    recall = lcs / len(ref_tokens)
    return Score(precision, recall, _fmeasure(precision, recall))


def _line_tokens(text: str, tokenizer: Tokenizer) -> list[list[str]]:
    """The tokens of each line of text that yields any, in order."""
    return [t for t in (tokenizer(s) for s in text.splitlines()
                        if s.strip()) if t]


def rouge_lsum(pred: str, ref: str,
               tokenizer: Tokenizer = unicode_words) -> Score:
    """Newline-split union-LCS variant.

    Each reference line is matched against the union of its longest common
    subsequences with every prediction line; hits are clipped by token
    counts on both sides. For single-line texts this reduces exactly to
    rouge_l.
    """
    pred_sents = _line_tokens(pred, tokenizer)
    ref_sents = _line_tokens(ref, tokenizer)
    if not pred_sents or not ref_sents:
        return Score(0.0, 0.0, 0.0)
    pred_counts = Counter(chain.from_iterable(pred_sents))
    ref_counts = Counter(chain.from_iterable(ref_sents))
    hits = 0
    for ref_sent in ref_sents:
        union: set[int] = set()
        for pred_sent in pred_sents:
            union |= _lcs_indices(ref_sent, pred_sent)
        for idx in sorted(union):
            token = ref_sent[idx]
            if ref_counts[token] > 0 and pred_counts[token] > 0:
                hits += 1
                ref_counts[token] -= 1
                pred_counts[token] -= 1
    precision = hits / sum(map(len, pred_sents))
    recall = hits / sum(map(len, ref_sents))
    return Score(precision, recall, _fmeasure(precision, recall))


# -- BLEU -------------------------------------------------------------------

# The n-gram orders BLEU counts unless told otherwise.
BLEU_ORDER = 4


def bleu(preds: list[str] | str, refs: list[str] | str,
         max_order: int = BLEU_ORDER,
         tokenizer: Tokenizer = unicode_words, smooth: bool = False
         ) -> float:
    """Corpus-level BLEU with one reference per prediction.

    Orders longer than every prediction are dropped from the geometric
    mean rather than zeroing it, so identical corpora score 1.0 whatever
    their length. smooth=True applies add-one smoothing to the clipped
    counts, the usual sentence-level fallback.
    """
    if isinstance(preds, str):
        preds = [preds]
    if isinstance(refs, str):
        refs = [refs]
    if len(preds) != len(refs):
        raise ValidationError(
            f"got {len(preds)} predictions for {len(refs)} references")
    if not preds:
        raise ValidationError("bleu needs at least one pair")
    if max_order < 1:
        raise ValidationError(f"max_order must be >= 1, got {max_order}")
    return bleu_score(overlap_counts(
        [(tokenizer(pred), tokenizer(ref)) for pred, ref in zip(preds, refs)],
        max_order), smooth)


def bleu_score(corpus: list[Counts], smooth: bool) -> float:
    """BLEU of a corpus from each pair's token counts, at the orders they
    hold."""
    max_order = len(corpus[0].overlaps)
    numerators = [0] * max_order
    denominators = [0] * max_order
    pred_len = 0
    ref_len = 0
    for counts in corpus:
        pred_len += counts.pred_len
        ref_len += counts.ref_len
        for n in range(1, min(max_order, counts.pred_len) + 1):
            denominators[n - 1] += counts.pred_len - n + 1
            numerators[n - 1] += counts.overlaps[n - 1]
    log_sum = 0.0
    effective = 0
    for num, den in zip(numerators, denominators):
        if den == 0:
            continue
        effective += 1
        if smooth:
            log_sum += math.log((num + 1) / (den + 1))
        elif num == 0:
            return 0.0
        else:
            log_sum += math.log(num / den)
    if effective == 0 or pred_len == 0:
        return 0.0
    geo_mean = math.exp(log_sum / effective)
    brevity = 1.0 if pred_len >= ref_len else math.exp(1.0 - ref_len
                                                       / pred_len)
    return geo_mean * brevity


# -- chrF -------------------------------------------------------------------

# chrf's highest character n-gram order.
CHRF_ORDER = 6


def _chrf_chars(text: str) -> str:
    """The characters chrf counts: text with its whitespace removed."""
    return "".join(text.split())


def chrf(pred: str, ref: str) -> float:
    """Character n-gram F-score on a 0..100 scale.

    Whitespace is removed before n-gram extraction. Orders where either
    side has no n-grams are skipped; two empty texts score 100.
    """
    return chrf_score(overlap_counts([(_chrf_chars(pred), _chrf_chars(ref))],
                                     CHRF_ORDER)[0])


def chrf_score(counts: Counts) -> float:
    """chrF of a pair's character counts at orders 1..CHRF_ORDER."""
    beta = 2.0
    pred_len, ref_len = counts.pred_len, counts.ref_len
    if not pred_len and not ref_len:
        return 100.0
    if not pred_len or not ref_len:
        return 0.0
    orders = min(CHRF_ORDER, pred_len, ref_len)
    overlaps = counts.overlaps[:orders]
    precision = sum(overlap / (pred_len - n)
                    for n, overlap in enumerate(overlaps)) / orders
    recall = sum(overlap / (ref_len - n)
                 for n, overlap in enumerate(overlaps)) / orders
    if precision + recall == 0.0:
        return 0.0
    beta2 = beta * beta
    return 100.0 * (1 + beta2) * precision * recall / (
        beta2 * precision + recall)


# -- METEOR -----------------------------------------------------------------

def _meteor_alignment(pred_tokens: list[str], ref_tokens: list[str]
                      ) -> list[tuple[int, int]]:
    """Exact-match alignment as (pred index, ref index) pairs.

    Greedy longest-phrase matching: repeatedly take the longest contiguous
    span still unmatched on both sides (leftmost on ties). Every word ends
    up matched min(pred count, ref count) times, which is the maximum any
    alignment can achieve, while long runs stay contiguous to keep the
    chunk count honest.

    Every matching (i, j) waits in a heap keyed by (-run length, i, j).
    Taking positions only shortens runs, so a stored length is an upper
    bound: a popped entry whose run is still that long is the longest,
    leftmost free run; a shorter one goes back with its new length.
    """
    pred_free = [True] * len(pred_tokens)
    ref_free = [True] * len(ref_tokens)
    positions: dict[str, list[int]] = {}
    for j, token in enumerate(ref_tokens):
        positions.setdefault(token, []).append(j)
    runs: dict[tuple[int, int], int] = {}
    for i in range(len(pred_tokens) - 1, -1, -1):
        for j in positions.get(pred_tokens[i], ()):
            runs[i, j] = runs.get((i + 1, j + 1), 0) + 1
    heap = [(-length, i, j) for (i, j), length in runs.items()]
    heapq.heapify(heap)
    pairs: list[tuple[int, int]] = []
    while heap:
        stored, i, j = heapq.heappop(heap)
        if not (pred_free[i] and ref_free[j]):
            continue
        length = 1
        while (i + length < len(pred_tokens)
               and j + length < len(ref_tokens)
               and pred_free[i + length] and ref_free[j + length]
               and pred_tokens[i + length] == ref_tokens[j + length]):
            length += 1
        if length < -stored:
            heapq.heappush(heap, (-length, i, j))
            continue
        for k in range(length):
            pred_free[i + k] = False
            ref_free[j + k] = False
            pairs.append((i + k, j + k))
    pairs.sort()
    return pairs


def _count_chunks(pairs: list[tuple[int, int]]) -> int:
    chunks = 0
    prev: tuple[int, int] | None = None
    for i, j in pairs:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            chunks += 1
        prev = (i, j)
    return chunks


def meteor(pred: str, ref: str, tokenizer: Tokenizer = unicode_words) -> float:
    """Exact-match variant: unigram F-mean discounted by fragmentation.

    score = F * (1 - gamma * (chunks / matches) ** beta) with
    F = P*R / (alpha*P + (1-alpha)*R). No stemming or synonymy stage, so
    the matcher is language-neutral.
    """
    alpha, beta, gamma = 0.9, 3.0, 0.5
    pred_tokens = tokenizer(pred)
    ref_tokens = tokenizer(ref)
    if not pred_tokens or not ref_tokens:
        return 0.0
    pairs = _meteor_alignment(pred_tokens, ref_tokens)
    matches = len(pairs)
    if matches == 0:
        return 0.0
    precision = matches / len(pred_tokens)
    recall = matches / len(ref_tokens)
    f_mean = precision * recall / (alpha * precision
                                   + (1.0 - alpha) * recall)
    chunks = _count_chunks(pairs)
    penalty = gamma * (chunks / matches) ** beta
    return f_mean * (1.0 - penalty)


# -- extractive QA token F1 -------------------------------------------------

_NOT_PUNCTUATION = SpaceOutTable(
    lambda ch: not unicodedata.category(ch).startswith("P"))


def _squad_normalize(text: str) -> list[str]:
    return text.casefold().translate(_NOT_PUNCTUATION).split()


def squad_f1(pred: str, ref: str) -> float:
    """Bag-of-token F1 after casefolding and punctuation removal.

    Articles are kept: SQuAD's English article stripping does not apply to
    other languages. Both sides normalizing to nothing counts as a perfect
    match.
    """
    return squad_f1_score(overlap_counts(
        [(_squad_normalize(pred), _squad_normalize(ref))], 1)[0])


def squad_f1_score(counts: Counts) -> float:
    """Token F1 of a pair's _squad_normalize counts at order 1."""
    if not counts.pred_len and not counts.ref_len:
        return 1.0
    if not counts.pred_len or not counts.ref_len:
        return 0.0
    overlap = counts.overlaps[0]
    if overlap == 0:
        return 0.0
    precision = overlap / counts.pred_len
    recall = overlap / counts.ref_len
    return _fmeasure(precision, recall)


# -- embedding-based token alignment ----------------------------------------

def bert_like_score(pred: str, ref: str, unit_rows,
                    tokenizer: Tokenizer = unicode_words) -> Score:
    """Greedy token alignment over embedding cosines.

    unit_rows maps tokens to their unit-length embedding rows. Each
    prediction token claims its most similar reference token and vice
    versa; similarities are clipped at zero so antipodal noise cannot go
    negative. There is no idf weighting or baseline rescaling, which makes
    absolute values incomparable with published model-based scores; only
    within-run comparisons are meaningful.
    """
    pred_tokens = tokenizer(pred)
    ref_tokens = tokenizer(ref)
    if not pred_tokens and not ref_tokens:
        return Score(1.0, 1.0, 1.0)
    if not pred_tokens or not ref_tokens:
        return Score(0.0, 0.0, 0.0)
    sims = np.clip(unit_rows(pred_tokens) @ unit_rows(ref_tokens).T, 0.0,
                   None)
    precision = float(sims.max(axis=1).mean())
    recall = float(sims.max(axis=0).mean())
    return Score(precision, recall, _fmeasure(precision, recall))
