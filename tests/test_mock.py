"""The mock providers' fast paths against the plain forms they replaced.

The mock text draws straight from `Random.getrandbits`, and the embedder
hashes a batch's words into one numpy array. Each plain form is kept here
as the reference, and the fast path must match it exactly: the same
strings, the same generator state afterwards, the same vectors.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from seedforge.gateway import mock
from seedforge.gateway.mock import (MockEmbedder, MockTextGenerator,
                                    MockWikiClient)
from seedforge.gateway.types import GenRequest, WikiArticleRef

SEEDS = range(10_000)
# Every word count the mock passes to _phrase (`_sentence` draws 6-11),
# and every sentence count it passes to _paragraph.
WORD_COUNTS = range(1, 12)
SENTENCE_COUNTS = range(2, 7)


def choice_word(rng):
    return "".join(rng.choice(mock._SYLLABLES)
                   for _ in range(rng.randint(2, 3)))


def choice_phrase(rng, n_words):
    return " ".join(choice_word(rng) for _ in range(n_words))


def choice_sentence(rng):
    return choice_phrase(rng, rng.randint(6, 11)).capitalize() + "."


def choice_paragraph(rng, n_sentences):
    return " ".join(choice_sentence(rng) for _ in range(n_sentences))


def same_draws(fast, plain, seed):
    """fast(rng) == plain(rng) from Random(seed), and both leave the
    generator where the next random() is the same."""
    a, b = random.Random(seed), random.Random(seed)
    assert fast(a) == plain(b), seed
    assert a.random() == b.random(), seed


class TestMockText:
    def test_word_is_a_one_word_phrase(self):
        for seed in SEEDS:
            same_draws(lambda rng: mock._phrase(rng, 1), choice_word, seed)

    def test_phrase(self):
        for seed in SEEDS:
            n = WORD_COUNTS[seed % len(WORD_COUNTS)]
            same_draws(lambda rng: mock._phrase(rng, n),
                       lambda rng: choice_phrase(rng, n), seed)

    def test_sentence(self):
        for seed in SEEDS:
            same_draws(mock._sentence, choice_sentence, seed)

    def test_paragraph(self):
        for seed in SEEDS:
            n = SENTENCE_COUNTS[seed % len(SENTENCE_COUNTS)]
            same_draws(lambda rng: mock._paragraph(rng, n),
                       lambda rng: choice_paragraph(rng, n), seed)

    @pytest.fixture
    def plain_text(self, monkeypatch):
        """Swap the plain forms into the mock module."""
        def swap():
            monkeypatch.setattr(mock, "_phrase", choice_phrase)
            monkeypatch.setattr(mock, "_sentence", choice_sentence)
            monkeypatch.setattr(mock, "_paragraph", choice_paragraph)
        return swap

    def test_every_reply_shape(self, plain_text):
        prompts = ["generate 20 completely random topics",
                   "Generate 6 questions and answers about the passage",
                   "Generate a concise summary in bullet points format",
                   "Generate a conversation about the topic",
                   "Generate a multiple-choice question about the passage",
                   "Write a passage about the topic"]
        requests = [GenRequest(prompt=prompt, temperature=0.7, seed=seed)
                    for prompt in prompts for seed in range(40)]
        fast = [MockTextGenerator().complete(r) for r in requests]
        plain_text()
        assert fast == [MockTextGenerator().complete(r) for r in requests]

    def test_wiki_search_and_sections(self, plain_text):
        wiki = MockWikiClient()
        queries = [f"query {i}" for i in range(300)] + ["ตลาดน้ำ", "𝔘 x"]
        refs = [WikiArticleRef(title=f"Title {i}", page_id=i, rank=0)
                for i in range(300)]
        fast = ([wiki.search(q, 3) for q in queries],
                [wiki.fetch_sections(ref) for ref in refs])
        assert any(not hits for hits in fast[0])
        plain_text()
        assert fast == ([wiki.search(q, 3) for q in queries],
                        [wiki.fetch_sections(ref) for ref in refs])

    def test_request_digest_is_the_sorted_json_form(self):
        for request in (GenRequest(prompt="echo: ตลาด 𝔘", temperature=0.0,
                                   seed=3),
                        GenRequest(prompt="x\n\"y\"", temperature=0.7,
                                   seed=2**63, max_tokens=9)):
            body = json.dumps(
                {"prompt": request.prompt, "temperature": request.temperature,
                 "max_tokens": request.max_tokens, "seed": request.seed},
                sort_keys=True, ensure_ascii=False)
            assert mock._request_digest(request) == int.from_bytes(
                hashlib.sha256(body.encode("utf-8")).digest()[:8], "big")


def test_cpython_draw_rule_the_mock_copies():
    """The mock text repeats CPython's `Random._randbelow` by hand. If an
    upgrade changes that rule, this fails with the reason."""
    why = ("gateway/mock.py draws its syllables by the rule of CPython's "
           "Random._randbelow_with_getrandbits; this Python draws another "
           "way, so the mock replies would change")
    assert (random.Random._randbelow
            is random.Random._randbelow_with_getrandbits), why
    for k in range(1, 33):
        for seed in range(20):
            assert (random.Random(seed).getrandbits(k)
                    == random.Random(seed).getrandbits(32) >> (32 - k)), (
                f"{why}: getrandbits({k}) is not the top {k} bits of "
                f"one 32-bit output")


def sha256_slot(word, dim):
    """(bucket, sign) of one word by Python integer arithmetic."""
    h = int.from_bytes(hashlib.sha256(word.encode("utf-8")).digest()[:8],
                       "big")
    return (h >> 1) % dim, 1.0 if h & 1 else -1.0


class TestMockEmbedderSlots:
    WORDS = ["a", "word", "ASCII-42", "สวัสดี", "ภาษาไทย", "กรุงเทพฯ",
             "𝔘𝔫𝔦", "😀", "𠀀ab", "x𝔘ไทย"]

    @staticmethod
    def random_words(count):
        rng = random.Random(11)
        alphabet = "abcxyz09" + "กขคงจฉ" + "𝔘𝔫😀𠀀"
        return ["".join(rng.choices(alphabet, k=rng.randint(1, 8)))
                for _ in range(count)]

    @pytest.mark.parametrize("dim", [8, 100, 256])
    def test_one_word_texts_land_in_their_sha256_slot(self, dim):
        words = sorted(set(self.WORDS + self.random_words(2000)))
        rows = np.array([v.values for v in
                         MockEmbedder(dim=dim).embed_batch(words)])
        want = np.zeros_like(rows)
        for row, word in enumerate(words):
            bucket, sign = sha256_slot(word, dim)
            want[row, bucket] = sign
        assert np.array_equal(rows, want)
        # Both halves of the digest range, so no bit is lost to a sign.
        high = [w for w in words if hashlib.sha256(
            w.encode("utf-8")).digest()[0] >= 0x80]
        assert 0 < len(high) < len(words)
