"""Deterministic in-process providers.

Every mock is a pure function of (request, seed): identical inputs yield
byte-identical outputs, with no network, no clock, and no shared mutable
state. The text generator recognizes the pipeline's own prompt shapes and
answers with well-formed payloads, so a full dataset build can run offline.

The mock text is syllables drawn from a seeded `random.Random`. Its draws
are made straight from `getrandbits`, by the rule of CPython's
`Random._randbelow` (draw `n.bit_length()` bits, and draw again while the
value is at least n), so every reply is the one `rng.choice(_SYLLABLES)`
and `rng.randint` would give, without their call layers.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

import numpy as np

from seedforge.errors import ValidationError
from seedforge.gateway.providers import (Embedder, Paraphraser, TextGenerator,
                                         Translator, WikiClient)
from seedforge.gateway.types import EmbeddingVector, GenRequest, WikiArticleRef
from seedforge.seeding import derive_seed

_SYLLABLES = (
    "ka", "ri", "to", "na", "sel", "mor", "vin", "dra", "lu", "pek",
    "sha", "om", "tir", "ban", "qua", "zel", "fi", "gor", "hem", "ja",
    "kro", "lim", "nu", "pra", "sto", "tul", "ver", "wi", "xan", "yor",
    "bi", "cho", "dal", "eri", "fol", "gra", "hul", "iv", "jen", "kol",
)


# `_SYLLABLES` padded to the 64 values of a 6-bit draw: a None entry is a
# draw of 40 or more, which `_randbelow(40)` rejects and draws again.
_SYLLABLE_OF_BITS = _SYLLABLES + (None,) * (64 - len(_SYLLABLES))


def _phrase(rng: random.Random, n_words: int) -> str:
    """n_words words of 2 or 3 syllables, joined by spaces. Each word
    makes the draws of `rng.randint(2, 3)` (2 bits, below 2) and then of
    `rng.choice(_SYLLABLES)` per syllable (6 bits, below 40). The
    syllable draws are written out, as a loop over them costs a third
    more."""
    bits = rng.getrandbits
    words = []
    for _ in range(n_words):
        third = bits(2)
        while third > 1:
            third = bits(2)
        first = _SYLLABLE_OF_BITS[bits(6)]
        while first is None:
            first = _SYLLABLE_OF_BITS[bits(6)]
        second = _SYLLABLE_OF_BITS[bits(6)]
        while second is None:
            second = _SYLLABLE_OF_BITS[bits(6)]
        if third:
            last = _SYLLABLE_OF_BITS[bits(6)]
            while last is None:
                last = _SYLLABLE_OF_BITS[bits(6)]
            words.append(first + second + last)
        else:
            words.append(first + second)
    return " ".join(words)


def _sentence(rng: random.Random) -> str:
    """6 to 11 words: the draw of `rng.randint(6, 11)` is 3 bits, below 6."""
    extra = rng.getrandbits(3)
    while extra > 5:
        extra = rng.getrandbits(3)
    return _phrase(rng, 6 + extra).capitalize() + "."


def _paragraph(rng: random.Random, n_sentences: int) -> str:
    return " ".join([_sentence(rng) for _ in range(n_sentences)])


# The request digest's JSON form, one encoder for every request.
_DIGEST_JSON = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def _request_digest(request: GenRequest) -> int:
    body = _DIGEST_JSON.encode(
        {"prompt": request.prompt, "temperature": request.temperature,
         "max_tokens": request.max_tokens, "seed": request.seed})
    return int.from_bytes(
        hashlib.sha256(body.encode("utf-8")).digest()[:8], "big")


class MockTextGenerator(TextGenerator):
    """Prompt-shape-aware deterministic completion provider."""

    remote = False

    @property
    def provider_id(self) -> str:
        return "mock:gen"

    def complete(self, request: GenRequest) -> str:
        rng = random.Random(_request_digest(request))
        prompt = request.prompt
        if prompt.startswith("echo:"):
            return prompt[len("echo:"):]
        if "completely random topics" in prompt:
            return self._topics(rng, prompt)
        if re.match(r"Generate \d+ questions", prompt):
            return self._closed_qa(rng, prompt)
        if prompt.startswith("Generate a concise summary"):
            return self._summary(rng, prompt)
        if prompt.startswith("Generate a conversation"):
            return self._conversation(rng)
        if prompt.startswith("Generate a multiple-choice question"):
            return self._multiple_choice(rng)
        return _paragraph(rng, rng.randint(3, 6))

    def _topics(self, rng: random.Random, prompt: str) -> str:
        m = re.search(r"generate (\d+) completely random topics", prompt)
        count = int(m.group(1)) if m else 20
        topics = []
        seen = set()
        while len(topics) < count:
            topic = _phrase(rng, rng.randint(2, 4))
            if topic not in seen:
                seen.add(topic)
                topics.append(topic)
        return json.dumps(topics, ensure_ascii=False)

    def _closed_qa(self, rng: random.Random, prompt: str) -> str:
        m = re.match(r"Generate (\d+) questions", prompt)
        count = int(m.group(1)) if m else 5
        pairs = [
            {"question": _phrase(rng, rng.randint(4, 7)).capitalize() + "?",
             "answer": _sentence(rng)}
            for _ in range(count)
        ]
        return json.dumps(pairs, ensure_ascii=False)

    def _summary(self, rng: random.Random, prompt: str) -> str:
        m = re.search(r"concise summary in (.+?) format", prompt)
        style = m.group(1) if m else "paragraphs"
        payload = {
            "summary": _paragraph(rng, 2),
            "instruction": (f"Please summarize in {style} format the "
                            f"following text passage"),
        }
        return json.dumps(payload, ensure_ascii=False)

    def _conversation(self, rng: random.Random) -> str:
        user = _phrase(rng, rng.randint(5, 9)).capitalize() + "?"
        reply = _paragraph(rng, 2)
        return f"Input: {user} Output: {reply}"

    def _multiple_choice(self, rng: random.Random) -> str:
        question = _phrase(rng, rng.randint(5, 8)).capitalize() + "?"
        for _ in range(20):
            choices = [_phrase(rng, 2) for _ in range(4)]
            distinct = len(set(choices)) == 4 and not any(
                a in b for a in choices for b in choices if a is not b)
            if distinct:
                break
        explanation = _sentence(rng)
        reasoning = _sentence(rng)
        lines = [f"Question: {question}", "Choices:"]
        lines += [f"- {c}" for c in choices]
        lines.append(f"Answer: {explanation} {reasoning} "
                     f"The correct answer is {choices[0]}.")
        return "\n".join(lines)


class MockEmbedder(Embedder):
    """Signed bag-of-words feature hashing, L2 normalized.

    Identical texts map to identical vectors; texts sharing most words land
    near cosine 1, unrelated texts near 0. Deterministic with no seed at all,
    which is exactly what a cache-transparent embedding provider looks like.
    """

    remote = False

    def __init__(self, dim: int = 256):
        self._dim = dim

    @property
    def provider_id(self) -> str:
        return f"mock:embed:{self._dim}"

    def embed_batch(self, texts: list[str]) -> list[EmbeddingVector]:
        """Each distinct word of the batch is hashed once: the first 8
        bytes of its sha256, read big-endian, give the bucket (all but
        the last bit, modulo dim) and the sign (the last bit). One
        bincount sums the signs of every (text, bucket)."""
        split = [text.split() for text in texts]
        if not all(split):
            raise ValidationError("cannot embed whitespace-only text")
        if not texts:
            return []
        words = [word for row in split for word in row]
        index = {word: i for i, word in enumerate(set(words))}
        digests = np.frombuffer(b"".join([
            hashlib.sha256(word.encode("utf-8")).digest()[:8]
            for word in index]), ">u8")
        bucket = ((digests >> 1) % self._dim).astype(np.intp)
        sign = (digests & 1) * 2.0 - 1.0
        which = np.fromiter(map(index.__getitem__, words), np.intp,
                            len(words))
        flat = (np.repeat(np.arange(len(texts)) * self._dim,
                          [len(row) for row in split]) + bucket[which])
        # Sums of +-1.0 are exact integers, so the order of adds is moot.
        values = np.bincount(flat, weights=sign[which],
                             minlength=len(texts) * self._dim
                             ).reshape(len(texts), self._dim)
        # Each norm is Python's `** 0.5` of the exact sum of squares, as
        # in the one-text-at-a-time rule, so vectors stay bit-identical.
        norms = []
        for row, total in zip(values, np.einsum("ij,ij->i", values,
                                                values).tolist()):
            if total == 0.0:
                # Hash signs cancelled out; nudge one bucket so the vector
                # stays usable for cosine similarity.
                row[0] = total = 1.0
            norms.append(total ** 0.5)
        values /= np.array(norms)[:, None]
        values.flags.writeable = False
        return [EmbeddingVector(row) for row in values]


class MockTranslator(Translator):
    """Wraps text in a language-tagged bracket: th->en of "x" is "en⟨x⟩".

    A round trip th->en->th yields "th⟨en⟨x⟩⟩", visibly degraded and never
    equal to the input, which downstream fluency ablations rely on.
    """

    remote = False

    @property
    def provider_id(self) -> str:
        return "mock:translate"

    def translate_batch(self, texts: list[str], source_lang: str,
                        target_lang: str) -> list[str]:
        return [f"{target_lang}⟨{text}⟩" for text in texts]


class MockParaphraser(Paraphraser):
    remote = False

    def __init__(self, seed: int = 0):
        self.seed = seed

    @property
    def provider_id(self) -> str:
        return f"mock:paraphrase:{self.seed}"

    def paraphrase_batch(self, texts: list[str], count: int
                         ) -> list[list[str]]:
        batch = []
        for text in texts:
            tags = [derive_seed(self.seed, "paraphrase", text, i) % 0xFFFFFF
                    for i in range(count)]
            batch.append([f"{text} ⟪p{i + 1}:{tag:06x}⟫"
                          for i, tag in enumerate(tags)])
        return batch


class MockWikiClient(WikiClient):
    """Deterministic pseudo-wiki: titles, page ids, and section bodies are
    all derived from the query/article hash. About 5% of queries return no
    hits so the generated-context fallback path gets exercised."""

    remote = False

    @property
    def provider_id(self) -> str:
        return "mock:wiki"

    def search(self, query: str, limit: int) -> list[dict]:
        rng = random.Random(derive_seed("mockwiki", query))
        if rng.random() < 0.05:
            return []
        return [{"title": _phrase(rng, rng.randint(1, 3)).title(),
                 "page_id": rng.randrange(1, 10**7), "rank": rank}
                for rank in range(limit)]

    def fetch_sections(self, ref: WikiArticleRef) -> list[dict]:
        rng = random.Random(
            derive_seed("mockwiki-sections", ref.title, ref.page_id))
        headings = [""]
        headings += [_phrase(rng, rng.randint(1, 2)).capitalize()
                     for _ in range(rng.randint(0, 4))]
        return [{"body": _paragraph(rng, rng.randint(2, 4)),
                 "section": heading, "provenance": {"section_index": index}}
                for index, heading in enumerate(headings)]
