"""Metric fixtures computed by hand, plus identity and range properties.

The hand values below are closed forms, not regression snapshots: each one
is derived in a comment or is short enough to recompute mentally. The big
randomized sweep lives in the acceptance suite; a smaller one here keeps
unit runs fast.
"""

import math
import random
import unicodedata
from collections import Counter

import numpy as np
import pytest

from seedforge import metrics
from seedforge.errors import ValidationError
from seedforge.metrics import (Score, bert_like_score, bleu, chrf, meteor,
                               rouge_l, rouge_lsum, rouge_n, squad_f1)
from seedforge.evalreport import _TokenVectors
from seedforge.tokenizers import (TOKENIZERS, characters, get_tokenizer,
                                  unicode_words, whitespace)


def lcs_table(a, b):
    """The full (len(a)+1) x (len(b)+1) LCS table, cell by cell."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table


def lcs_indices_by_table(a, b):
    """Backtrack through lcs_table: step up only when the cell above is
    strictly larger than the cell to the left."""
    table = lcs_table(a, b)
    i, j = len(a), len(b)
    picked = set()
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            picked.add(i - 1)
            i -= 1
            j -= 1
        elif table[i - 1][j] > table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return picked


def rouge_lsum_by_table(pred, ref, tokenizer):
    """rouge_lsum's union-LCS with the table backtrack."""
    pred_sents = [t for t in (tokenizer(s) for s in pred.splitlines()
                              if s.strip()) if t]
    ref_sents = [t for t in (tokenizer(s) for s in ref.splitlines()
                             if s.strip()) if t]
    if not pred_sents or not ref_sents:
        return Score(0.0, 0.0, 0.0)
    pred_counts = Counter(t for s in pred_sents for t in s)
    ref_counts = Counter(t for s in ref_sents for t in s)
    hits = 0
    for ref_sent in ref_sents:
        union = set()
        for pred_sent in pred_sents:
            union |= lcs_indices_by_table(ref_sent, pred_sent)
        for idx in sorted(union):
            token = ref_sent[idx]
            if ref_counts[token] > 0 and pred_counts[token] > 0:
                hits += 1
                ref_counts[token] -= 1
                pred_counts[token] -= 1
    precision = hits / sum(len(s) for s in pred_sents)
    recall = hits / sum(len(s) for s in ref_sents)
    f1 = (0.0 if precision + recall == 0.0
          else 2.0 * precision * recall / (precision + recall))
    return Score(precision, recall, f1)


WORDS = ["วัด", "แม่น้ำ", "a", "ab", "", " "]


def random_token_lists(rng, count, longest):
    """count seeded (a, b) token-list pairs up to `longest` tokens, over
    alphabets of 1 to 8 symbols, so repeats and LCS ties are common and
    either side may be empty."""
    for _ in range(count):
        alphabet = (WORDS if rng.random() < 0.2
                    else "abcdefgh"[:rng.randint(1, 8)])
        yield tuple([rng.choice(alphabet)
                     for _ in range(rng.randint(0, longest))]
                    for _ in range(2))


class TestTokenizers:
    def test_unicode_words(self):
        assert unicode_words("the cat, sat!") == ["the", "cat", "sat"]
        assert unicode_words("วัดอรุณ ราชวราราม") == ["วัดอรุณ",
                                                      "ราชวราราม"]
        assert unicode_words("  \t ") == []
        assert unicode_words("!!!") == []

    def test_characters(self):
        assert characters("a b") == ["a", "b"]
        assert characters("กข") == ["ก", "ข"]
        assert characters(" \n") == []

    def test_whitespace(self):
        assert whitespace("a  b\tc") == ["a", "b", "c"]
        assert whitespace("") == []

    def test_registry(self):
        assert set(TOKENIZERS) == {"unicode_words", "characters",
                                   "whitespace"}
        assert get_tokenizer("characters") is characters
        with pytest.raises(ValueError, match="unknown tokenizer"):
            get_tokenizer("words")


class TestRougeN:
    def test_unigram_two_of_three(self):
        # overlap {a, b} of 3 tokens each side: P = R = F = 2/3
        score = rouge_n("a b c", "a b d", n=1)
        assert score.precision == 2 / 3
        assert score.recall == 2 / 3
        assert score.f1 == 2 / 3

    def test_counts_are_clipped(self):
        # pred has "a" twice but ref only once: overlap is 1, not 2
        score = rouge_n("a a", "a b", n=1)
        assert score.precision == 0.5
        assert score.recall == 0.5

    def test_bigram(self):
        # bigrams: pred {ab, bc}, ref {ab, bd} -> overlap 1
        score = rouge_n("a b c", "a b d", n=2)
        assert score.precision == 0.5
        assert score.f1 == 0.5

    def test_identity_is_one(self):
        assert rouge_n("x y z", "x y z", n=1).f1 == 1.0
        assert rouge_n("x y z", "x y z", n=2).f1 == 1.0

    def test_empty_sides_are_zero(self):
        assert rouge_n("", "a", n=1).f1 == 0.0
        assert rouge_n("a", "", n=1).f1 == 0.0
        assert rouge_n("", "", n=1).f1 == 0.0

    def test_order_validated(self):
        with pytest.raises(ValidationError):
            rouge_n("a", "a", n=0)

    def test_tokenizer_parameter(self):
        # as single word tokens the Thai strings differ entirely
        assert rouge_n("กขค", "กขง", n=1).f1 == 0.0
        assert rouge_n("กขค", "กขง", n=1,
                       tokenizer=characters).f1 == 2 / 3


class TestRougeL:
    def test_reordered_tail(self):
        # LCS("a c b", "a b c") has length 2
        score = rouge_l("a c b", "a b c")
        assert score.f1 == 2 / 3

    def test_subsequence_not_substring(self):
        # gaps are allowed: LCS is the full reference
        score = rouge_l("a x b y c", "a b c")
        assert score.recall == 1.0
        assert score.precision == 3 / 5

    def test_identity_and_empty(self):
        assert rouge_l("a b c", "a b c").f1 == 1.0
        assert rouge_l("", "a").f1 == 0.0

    def test_tokenizer_parameter(self):
        assert rouge_l("กคข", "กขค", tokenizer=characters).f1 == 2 / 3

    EDGE = [([], []), ([], ["a"]), (["a"], []), (["a"] * 70, ["a"] * 3),
            (["a", "b"] * 40, ["b", "a"] * 40), (WORDS, WORDS[::-1])]

    def test_lcs_length_equals_the_full_table(self):
        # Random lists up to 150 tokens span several 64-bit words of the
        # bit vectors; small alphabets repeat tokens heavily.
        cases = self.EDGE + list(
            random_token_lists(random.Random(11), 400, 150))
        for a, b in cases:
            assert metrics._lcs_length(a, b) == lcs_table(a, b)[-1][-1]

    def test_lcs_indices_equal_the_table_backtrack(self):
        # 10,000 short cases tie often; 300 long ones cross 64-bit words.
        rng = random.Random(12)
        cases = (self.EDGE + list(random_token_lists(rng, 10_000, 16))
                 + list(random_token_lists(rng, 300, 90)))
        for a, b in cases:
            assert metrics._lcs_indices(a, b) == lcs_indices_by_table(a, b)


class TestRougeLsum:
    @pytest.mark.parametrize("pred,ref", [
        ("a c b", "a b c"),
        ("a x b y c", "a b c"),
        ("the cat sat", "the cat sat on the mat"),
        ("ก ข ค", "ก ค"),
    ])
    def test_single_line_reduces_to_rouge_l(self, pred, ref):
        assert rouge_lsum(pred, ref).f1 == rouge_l(pred, ref).f1

    def test_multiline_union(self):
        # each ref line is covered by its own pred line; order of lines
        # does not matter to the union
        pred = "c d\na b"
        ref = "a b\nc d"
        assert rouge_lsum(pred, ref).f1 == 1.0
        assert rouge_l(pred, ref).f1 < 1.0

    def test_union_hits_are_clipped(self):
        # ref token "a" appears once; two pred lines can't claim it twice
        score = rouge_lsum("a\na", "a")
        assert score.recall == 1.0
        assert score.precision == 0.5

    def test_blank_lines_ignored(self):
        assert rouge_lsum("a b\n\n \n", "a b").f1 == 1.0

    @pytest.mark.parametrize("name", sorted(TOKENIZERS))
    def test_equals_the_table_backtrack(self, name):
        tokenizer = get_tokenizer(name)
        rng = random.Random(f"lsum-table-{name}")
        pieces = ["ก", "ข", "ค", "ปลา", "a", "b", " ", " ", "\n", "\n"]
        for trial in range(300):
            pred, ref = ("".join(rng.choice(pieces)
                                 for _ in range(rng.randint(0, 40)))
                         for _ in range(2))
            assert (rouge_lsum(pred, ref, tokenizer)
                    == rouge_lsum_by_table(pred, ref, tokenizer))

    @pytest.mark.parametrize("name", sorted(TOKENIZERS))
    def test_single_line_equals_rouge_l_exactly(self, name):
        tokenizer = get_tokenizer(name)
        rng = random.Random(f"lsum-{name}")
        for trial in range(300):
            pred, ref = (" ".join(rng.choice("abc ก ข")
                                  for _ in range(rng.randint(0, 25)))
                         for _ in range(2))
            assert (rouge_lsum(pred, ref, tokenizer).f1
                    == rouge_l(pred, ref, tokenizer).f1)


class TestBleu:
    def test_pinned_value(self):
        # unigrams 2/2, bigrams 1/1, brevity exp(1 - 3/2)
        got = bleu("the cat", "the cat sat", max_order=2)
        assert got == pytest.approx(0.6065, abs=1e-4)
        assert got == math.exp(-0.5)

    def test_identity_is_one_even_for_short_texts(self):
        assert bleu("hello", "hello") == 1.0
        assert bleu(["a b", "c"], ["a b", "c"]) == 1.0

    def test_disjoint_is_zero(self):
        assert bleu("a b c", "x y z") == 0.0

    def test_no_brevity_penalty_for_long_predictions(self):
        assert bleu("the cat sat", "the cat", max_order=1) == 2 / 3

    def test_zero_order_kills_unsmoothed_score(self):
        # unigrams overlap but no bigram does
        assert bleu("a c", "a b", max_order=2) == 0.0

    def test_smoothing_rescues_zero_orders(self):
        got = bleu("a c", "a b", max_order=2, smooth=True)
        # ((1+1)/(2+1)) * ((0+1)/(1+1)) under add-one smoothing
        assert got == pytest.approx(math.sqrt(2 / 3 * 1 / 2))

    def test_corpus_pools_counts(self):
        # pooled counts differ from averaging per-sentence scores
        pooled = bleu(["a b", "x"], ["a b", "y"], max_order=1)
        assert pooled == 2 / 3

    def test_validation(self):
        with pytest.raises(ValidationError):
            bleu(["a"], ["a", "b"])
        with pytest.raises(ValidationError):
            bleu([], [])
        with pytest.raises(ValidationError):
            bleu("a", "a", max_order=0)

    def test_empty_prediction_is_zero(self):
        assert bleu("", "a b") == 0.0

    def test_tokenizer_parameter(self):
        assert bleu("กข", "กข", max_order=1, tokenizer=characters) == 1.0


class TestChrf:
    def test_hand_tally(self):
        # orders 1..4: 3/4, 2/3, 1/2, 0/1; orders 5,6 have no grams.
        # beta=2 makes F equal the mean when P == R.
        want = 100 * (3 / 4 + 2 / 3 + 1 / 2 + 0) / 4
        assert chrf("abcd", "abce") == pytest.approx(want, abs=1e-9)

    def test_identity_is_hundred(self):
        assert chrf("สวัสดีครับ", "สวัสดีครับ") == pytest.approx(100.0)

    def test_whitespace_ignored(self):
        assert chrf("a b c", "abc") == pytest.approx(100.0)

    def test_empty_conventions(self):
        assert chrf("", "") == 100.0
        assert chrf("", "a") == 0.0
        assert chrf("a", "") == 0.0

    def test_disjoint_is_zero(self):
        assert chrf("aaaa", "bbbb") == 0.0


class TestMeteor:
    def test_swapped_pair_is_half(self):
        # perfect unigram F, but 2 chunks over 2 matches:
        # 1 - 0.5 * (2/2)^3 = 0.5
        assert meteor("a b", "b a") == 0.5

    def test_identity_four_tokens(self):
        # 1 - 0.5 * (1/4)^3
        assert meteor("a b c d", "a b c d") == 0.9921875

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_identity_formula(self, m):
        text = " ".join(f"w{i}" for i in range(m))
        assert meteor(text, text) == 1.0 - 0.5 / m ** 3

    def test_full_fragmentation_is_half(self):
        # all four tokens match but no two stay adjacent
        assert meteor("a b c d", "a c b d") == 0.5

    def test_no_match_is_zero(self):
        assert meteor("a b", "x y") == 0.0

    def test_empty_is_zero(self):
        assert meteor("", "") == 0.0
        assert meteor("a", "") == 0.0

    def test_repeated_tokens_match_min_count(self):
        # pred has one "a", ref two: one match, recall 1/2
        got = meteor("a", "a a")
        f_mean = (1 * 0.5) / (0.9 * 1 + 0.1 * 0.5)
        assert got == pytest.approx(f_mean * 0.5)

    def test_tokenizer_parameter(self):
        assert meteor("กขคง", "กขคง", tokenizer=characters) == 0.9921875


def _all_pairs_alignment(pred_tokens, ref_tokens):
    """The alignment as first written: every round compares every free
    (i, j) and keeps the first strictly longer run."""
    pred_free = [True] * len(pred_tokens)
    ref_free = [True] * len(ref_tokens)
    pairs = []
    while True:
        best_len = 0
        best = None
        for i in range(len(pred_tokens)):
            if not pred_free[i]:
                continue
            for j in range(len(ref_tokens)):
                if not ref_free[j] or pred_tokens[i] != ref_tokens[j]:
                    continue
                length = 0
                while (i + length < len(pred_tokens)
                       and j + length < len(ref_tokens)
                       and pred_free[i + length] and ref_free[j + length]
                       and pred_tokens[i + length]
                       == ref_tokens[j + length]):
                    length += 1
                if length > best_len:
                    best_len = length
                    best = (i, j)
        if best is None:
            break
        i, j = best
        for k in range(best_len):
            pred_free[i + k] = False
            ref_free[j + k] = False
            pairs.append((i + k, j + k))
    pairs.sort()
    return pairs


class TestMeteorAlignment:
    """Three words over up to 30 positions make many runs of equal
    length, so the tie rule decides most rounds."""

    @staticmethod
    def sequences():
        rng = random.Random(1909)
        for trial in range(400):
            yield tuple([rng.choice("xyz") for _ in range(rng.randint(0, 30))]
                        for _ in range(2))

    def test_matches_all_pairs_search(self):
        for pred, ref in self.sequences():
            assert (metrics._meteor_alignment(pred, ref)
                    == _all_pairs_alignment(pred, ref))

    def test_meteor_scores_unchanged(self, monkeypatch):
        texts = [(" ".join(p), " ".join(r)) for p, r in self.sequences()]
        got = [meteor(p, r) for p, r in texts]
        monkeypatch.setattr(metrics, "_meteor_alignment",
                            _all_pairs_alignment)
        assert got == [meteor(p, r) for p, r in texts]


class TestSquadF1:
    def test_half_overlap(self):
        assert squad_f1("a b", "b c") == 0.5

    def test_articles_kept_by_default(self):
        assert squad_f1("the cat", "cat") == pytest.approx(2 / 3)

    def test_punctuation_and_case_folded(self):
        assert squad_f1("Cat!", "cat") == 1.0
        assert squad_f1("ก่อน, หลัง.", "ก่อน หลัง") == 1.0

    def test_empty_conventions(self):
        assert squad_f1("", "") == 1.0
        assert squad_f1("!!!", "???") == 1.0  # both normalize to nothing
        assert squad_f1("", "cat") == 0.0
        assert squad_f1("cat", "") == 0.0

    def test_symmetric(self):
        rng = random.Random(3)
        words = ["cat", "the", "วัด", "mat", "sat", "a"]
        for _ in range(50):
            x = " ".join(rng.choices(words, k=rng.randint(1, 6)))
            y = " ".join(rng.choices(words, k=rng.randint(1, 6)))
            assert squad_f1(x, y) == squad_f1(y, x)

    def test_repeats_clipped(self):
        assert squad_f1("a a", "a") == pytest.approx(2 / 3)


class FakeEmbedGateway:
    """Returns preset vectors per token, mimicking the gateway surface."""

    def __init__(self, table):
        self.table = table

    def embed(self, texts):
        return np.array([self.table[t] for t in texts], dtype=np.float64)


def unit_rows(gateway, *texts):
    """Unit rows of every token of texts, the way a report looks them up."""
    tokens = sorted({t for text in texts for t in unicode_words(text)})
    return _TokenVectors(gateway, tokens)


class TestBertLike:
    def test_hand_built_alignment(self):
        # pred x: sims (1.0, 0.6) -> 1.0; pred y: (0.0, 0.8) -> 0.8
        # ref x: 1.0; ref w: 0.8. P = R = F = 0.9
        gw = FakeEmbedGateway({"x": (1, 0), "y": (0, 1),
                               "w": (0.6, 0.8)})
        score = bert_like_score("x y", "x w", unit_rows(gw, "x y w"))
        assert score.precision == pytest.approx(0.9, abs=1e-9)
        assert score.recall == pytest.approx(0.9, abs=1e-9)
        assert score.f1 == pytest.approx(0.9, abs=1e-9)

    def test_rows_are_scaled_to_unit_length_once(self):
        # (3, 4) and (0, 2) are (0.6, 0.8) and (0, 1) at unit length
        gw = FakeEmbedGateway({"x": (3, 4), "y": (0, 2)})
        rows = unit_rows(gw, "x y")
        assert rows(["y", "x", "y"]).tolist() == [[0, 1], [0.6, 0.8],
                                                  [0, 1]]
        assert bert_like_score("x", "y", rows).f1 == pytest.approx(0.8)

    def test_negative_similarity_clipped_to_zero(self):
        gw = FakeEmbedGateway({"x": (1, 0), "y": (-1, 0)})
        assert bert_like_score("x", "y", unit_rows(gw, "x y")).f1 == 0.0

    def test_identity_with_mock_gateway(self, gateway):
        text = "วัด arun temple"
        score = bert_like_score(text, text, unit_rows(gateway, text))
        assert score.f1 == pytest.approx(1.0, abs=1e-9)

    def test_empty_conventions(self):
        def no_lookup(tokens):
            raise AssertionError(f"looked up {tokens}")

        assert bert_like_score("", "", no_lookup) == Score(1, 1, 1)
        assert bert_like_score("", "x", no_lookup).f1 == 0.0
        assert bert_like_score("x", " ", no_lookup) == Score(0, 0, 0)

    def test_zero_vector_rejected(self):
        gw = FakeEmbedGateway({"x": (0, 0), "y": (1, 0)})
        with pytest.raises(ValidationError, match="zero vector"):
            unit_rows(gw, "x y")


_POOL = ("กขคงจฉชซญje mange demain 123 456 cat sat mat "
         "ปลาใหญ่กินปลาเล็ก hello --- !!! ??? 🙂 ")


def random_text(rng, max_len=40):
    return "".join(rng.choice(_POOL) for _ in range(rng.randint(0, max_len)))


class TestIdentityAndRange:
    def test_random_unicode_pairs(self):
        rng = random.Random(20)
        for trial in range(300):
            a = random_text(rng)
            b = random_text(rng)
            assert 0.0 <= bleu(a, b, smooth=True) <= 1.0
            assert 0.0 <= bleu(a, b) <= 1.0
            for score in (rouge_n(a, b, n=1), rouge_n(a, b, n=2),
                          rouge_l(a, b), rouge_lsum(a, b)):
                assert 0.0 <= score.precision <= 1.0
                assert 0.0 <= score.recall <= 1.0
                assert 0.0 <= score.f1 <= 1.0
            assert 0.0 <= chrf(a, b) <= 100.0
            assert 0.0 <= meteor(a, b) <= 1.0
            assert 0.0 <= squad_f1(a, b) <= 1.0

    def test_identity_maxima(self):
        rng = random.Random(21)
        for trial in range(100):
            text = random_text(rng) + rng.choice(["คำ", "word", "7"])
            assert bleu(text, text) == 1.0
            assert rouge_n(text, text, n=1).f1 == 1.0
            assert rouge_l(text, text).f1 == 1.0
            assert chrf(text, text) == pytest.approx(100.0)
            assert squad_f1(text, text) == 1.0
            m = len(unicode_words(text))
            assert meteor(text, text) == pytest.approx(1.0 - 0.5 / m ** 3)


# -- the n-gram kernel against the Counter formulation ----------------------

# Reference implementations: the Counter-of-tuples n-gram counting and the
# per-character tokenizer loops that the integer-key kernel and the
# str.translate tokenizers replaced. The kernel must give every metric the
# same float, bit for bit.

def _ref_ngrams(tokens, n):
    return Counter(zip(*(tokens[k:] for k in range(n))))


def _ref_overlap(a, b):
    return sum((a & b).values())


def _ref_is_word_char(ch):
    return (ch == "_" or ch.isalnum()
            or unicodedata.category(ch).startswith("M"))


def _ref_unicode_words(text):
    tokens, run = [], []
    for ch in text:
        if _ref_is_word_char(ch):
            run.append(ch)
        elif run:
            tokens.append("".join(run))
            run.clear()
    if run:
        tokens.append("".join(run))
    return tokens


def _ref_squad_normalize(text):
    return "".join(" " if unicodedata.category(ch).startswith("P") else ch
                   for ch in text.casefold()).split()


def _ref_rouge_n(pred, ref, n, tokenizer):
    pred_grams = _ref_ngrams(tokenizer(pred), n)
    ref_grams = _ref_ngrams(tokenizer(ref), n)
    pred_total = sum(pred_grams.values())
    ref_total = sum(ref_grams.values())
    if pred_total == 0 or ref_total == 0:
        return Score(0.0, 0.0, 0.0)
    overlap = _ref_overlap(pred_grams, ref_grams)
    precision = overlap / pred_total
    recall = overlap / ref_total
    return Score(precision, recall, metrics._fmeasure(precision, recall))


def _ref_bleu(preds, refs, max_order, tokenizer, smooth):
    numerators = [0] * max_order
    denominators = [0] * max_order
    pred_len = ref_len = 0
    for pred, ref in zip(preds, refs):
        pred_tokens, ref_tokens = tokenizer(pred), tokenizer(ref)
        pred_len += len(pred_tokens)
        ref_len += len(ref_tokens)
        for n in range(1, max_order + 1):
            slots = len(pred_tokens) - n + 1
            if slots <= 0:
                continue
            denominators[n - 1] += slots
            numerators[n - 1] += _ref_overlap(_ref_ngrams(pred_tokens, n),
                                              _ref_ngrams(ref_tokens, n))
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
    brevity = 1.0 if pred_len >= ref_len else math.exp(1.0 - ref_len
                                                       / pred_len)
    return math.exp(log_sum / effective) * brevity


def _ref_chrf(pred, ref):
    pred_chars = "".join(pred.split())
    ref_chars = "".join(ref.split())
    if not pred_chars and not ref_chars:
        return 100.0
    if not pred_chars or not ref_chars:
        return 0.0
    precisions, recalls = [], []
    for n in range(1, 7):
        pred_total = len(pred_chars) - n + 1
        ref_total = len(ref_chars) - n + 1
        if pred_total <= 0 or ref_total <= 0:
            break
        overlap = _ref_overlap(
            Counter(pred_chars[i:i + n] for i in range(pred_total)),
            Counter(ref_chars[i:i + n] for i in range(ref_total)))
        precisions.append(overlap / pred_total)
        recalls.append(overlap / ref_total)
    precision = sum(precisions) / len(precisions)
    recall = sum(recalls) / len(recalls)
    if precision + recall == 0.0:
        return 0.0
    return 100.0 * 5.0 * precision * recall / (4.0 * precision + recall)


def _ref_squad_f1(pred, ref):
    pred_tokens = _ref_squad_normalize(pred)
    ref_tokens = _ref_squad_normalize(ref)
    if not pred_tokens and not ref_tokens:
        return 1.0
    if not pred_tokens or not ref_tokens:
        return 0.0
    overlap = _ref_overlap(Counter(pred_tokens), Counter(ref_tokens))
    if overlap == 0:
        return 0.0
    return metrics._fmeasure(overlap / len(pred_tokens),
                             overlap / len(ref_tokens))


# Symbol pools a side is drawn from: a tiny alphabet repeats n-grams at
# every order; the others add Thai with its combining marks, astral
# characters, lone surrogates, punctuation and mixed whitespace.
_KERNEL_POOLS = (
    "ab ",
    "กขค่ ั",
    "aAbB1_ .,!?-\t\n",
    "แมวนั่งบนเสื่อ 🙂🐘𝔸 𐏿\udc00 東京 ",
    "".join(chr(c) for c in range(0x0E01, 0x0E5B)) + "  \n",
)
# More distinct characters than 1,448, the largest alphabet whose
# sixth power fits in int64.
_WIDE = "".join(chr(c) for c in range(0x4E00, 0x4E00 + 3000))


def _kernel_text(rng, pool):
    if rng.random() < 0.1:
        return rng.choice(("", " ", "\n\t ", "a", "ab", "🙂", "\ud800"))
    return "".join(rng.choice(pool) for _ in range(rng.randint(0, 60)))


def _kernel_pairs():
    rng = random.Random(1448)
    pairs = []
    for _ in range(400):
        pool = rng.choice(_KERNEL_POOLS)
        pred = _kernel_text(rng, pool)
        ref = (_kernel_text(rng, pool) if rng.random() < 0.7
               else pred[rng.randrange(len(pred) + 1):] + pred)
        pairs.append((pred, ref))
    wide = list(_WIDE)
    for _ in range(4):
        rng.shuffle(wide)
        pred = "".join(wide[:2000])
        pairs.append((pred, pred[500:] + "".join(wide[1000:2500])))
    return pairs


class TestNgramKernel:
    pairs = _kernel_pairs()

    @pytest.mark.parametrize("name", sorted(TOKENIZERS))
    def test_rouge_n(self, name):
        tokenizer = TOKENIZERS[name]
        for pred, ref in self.pairs:
            for n in (1, 2, 3):
                assert (rouge_n(pred, ref, n, tokenizer)
                        == _ref_rouge_n(pred, ref, n, tokenizer))

    @pytest.mark.parametrize("name", sorted(TOKENIZERS))
    def test_sentence_bleu(self, name):
        tokenizer = TOKENIZERS[name]
        for pred, ref in self.pairs:
            for smooth in (False, True):
                assert (bleu([pred], [ref], tokenizer=tokenizer,
                             smooth=smooth)
                        == _ref_bleu([pred], [ref], 4, tokenizer, smooth))

    @pytest.mark.parametrize("name", sorted(TOKENIZERS))
    def test_corpus_bleu(self, name):
        tokenizer = TOKENIZERS[name]
        rng = random.Random(name)
        for _ in range(60):
            chunk = rng.sample(self.pairs, rng.randint(1, 8))
            preds = [p for p, _ in chunk]
            refs = [r for _, r in chunk]
            max_order = rng.randint(1, 6)
            for smooth in (False, True):
                assert (bleu(preds, refs, max_order, tokenizer, smooth)
                        == _ref_bleu(preds, refs, max_order, tokenizer,
                                     smooth))

    def test_chrf(self):
        for pred, ref in self.pairs:
            assert chrf(pred, ref) == _ref_chrf(pred, ref)

    def test_squad_f1(self):
        for pred, ref in self.pairs:
            assert squad_f1(pred, ref) == _ref_squad_f1(pred, ref)

    def test_wide_alphabet_pairs_share_long_ngrams(self):
        """The wide-alphabet pairs share order-6 n-grams, so the checks
        above compare keys that a naive base**6 key could not hold: each
        of the 1,495 6-grams of pred[500:] is in both sides."""
        for pred, ref in self.pairs[-4:]:
            assert len(set(pred + ref)) > 1448
            assert metrics._overlap_table([(pred, ref)], 6)[0, 5] == 1495
            assert 0.0 < chrf(pred, ref) < 100.0

    def test_tokenizers_match_their_loops(self):
        texts = [t for pair in self.pairs for t in pair] + [
            "".join(chr(c) for c in range(start, start + 400))
            for start in range(0, 0x30000, 0x1000)]
        for text in texts:
            assert unicode_words(text) == _ref_unicode_words(text)
            assert (metrics._squad_normalize(text)
                    == _ref_squad_normalize(text))


def _ref_overlap_row(a, b, max_order):
    """Clipped overlap of a and b at orders 1..max_order, by Counters of
    n-gram tuples."""
    return [_ref_overlap(_ref_ngrams(a, n), _ref_ngrams(b, n))
            for n in range(1, max_order + 1)]


def _table_pairs(kind):
    """Seeded pairs of one kind, strings or token lists: empty sides,
    sides shorter than every order, repeats that share n-grams with the
    neighbouring pairs, astral characters and lone surrogates, and one
    pair longer than the default block."""
    rng = random.Random(f"overlap-{kind}")
    pairs = []
    for _ in range(150):
        pool = rng.choice(_KERNEL_POOLS)
        a = _kernel_text(rng, pool)[:rng.choice((0, 1, 2, 3, 60))]
        b = (_kernel_text(rng, pool) if rng.random() < 0.6
             else a[rng.randrange(len(a) + 1):] + a)
        pairs.append((a, b))
    wide = list(_WIDE)
    rng.shuffle(wide)
    long_text = "".join(wide) * 2
    pairs.insert(70, (long_text, long_text[1000:] + long_text[:3000]))
    if kind == "tokens":
        pairs = [(list(a), b.split() + list(b)) for a, b in pairs]
    return pairs


class TestOverlapTable:
    @pytest.mark.parametrize("kind", ["chars", "tokens"])
    @pytest.mark.parametrize("block", [None, 1, 2, 3, 7, 64, 500])
    def test_rows_match_the_oracle_whatever_the_blocks(
            self, kind, block, monkeypatch):
        """Each row is the pair's own overlap however the pairs are
        blocked, and every block holds at most BLOCK_SYMBOLS symbols or a
        single pair."""
        if block is not None:
            monkeypatch.setattr(metrics, "BLOCK_SYMBOLS", block)
        blocks = []
        count_block = metrics._count_block

        def recording(pairs, table):
            blocks.append(len(pairs))
            assert (len(pairs) == 1 or sum(len(a) + len(b) for a, b in pairs)
                    <= metrics.BLOCK_SYMBOLS)
            count_block(pairs, table)

        monkeypatch.setattr(metrics, "_count_block", recording)
        pairs = _table_pairs(kind)
        assert max(len(a) + len(b) for a, b in pairs) > metrics.BLOCK_SYMBOLS
        table = metrics._overlap_table(pairs, 6)
        assert table.dtype == np.int64 and table.shape == (len(pairs), 6)
        assert table.tolist() == [_ref_overlap_row(a, b, 6)
                                  for a, b in pairs]
        assert sum(blocks) == len(pairs) and len(blocks) > 2

    def test_shared_ngrams_across_pairs_stay_apart(self):
        """Pairs in one block whose n-grams repeat each other's, and one
        text's end and the next text's start, count only their own."""
        pairs = [("ab", "ba"), ("ba", "ab"), ("aab", ""), ("", "abb"),
                 ("abab", "abab")]
        assert metrics._overlap_table(pairs, 3).tolist() == [
            [2, 0, 0], [2, 0, 0], [0, 0, 0], [0, 0, 0], [4, 3, 2]]
        tokens = [(list(a), list(b)) for a, b in pairs]
        assert (metrics._overlap_table(tokens, 3).tolist()
                == metrics._overlap_table(pairs, 3).tolist())

    def test_empty_input(self):
        assert metrics._overlap_table([], 4).shape == (0, 4)
        assert metrics._overlap_table([("", "")], 2).tolist() == [[0, 0]]
