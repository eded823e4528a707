"""Seeded input generators.

Each generator takes only the workload seed and writes plain files; the
program under test sees nothing but those files. The same seed always
yields byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import random

from seedforge.evalreport import EVAL_TASKS, TEST_SETS
from seedforge.tokenizers import unicode_words

# Thai consonants, and the combining marks (Unicode category Mn) that sit
# above or below them: vowel signs, then tone marks.
_CONSONANTS = [chr(c) for c in range(0x0E01, 0x0E2F)]
_VOWEL_MARKS = [chr(c) for c in (0x0E31, 0x0E34, 0x0E35, 0x0E36, 0x0E37,
                                 0x0E38, 0x0E39)]
_TONE_MARKS = [chr(c) for c in (0x0E48, 0x0E49, 0x0E4A, 0x0E4B)]
_LEADING_VOWELS = [chr(c) for c in (0x0E40, 0x0E41, 0x0E42, 0x0E43, 0x0E44)]
_FOLLOWING_VOWELS = [chr(0x0E30), chr(0x0E32)]

# Token-length range of a reference text, per eval task: short labels for
# classification up to long passages for creative writing.
TASK_LENGTHS = {
    "classification": (1, 4),
    "multiple_choice": (1, 6),
    "closed_qa": (3, 20),
    "open_qa": (10, 40),
    "brainstorming": (20, 60),
    "summarization": (30, 80),
    "creative_writing": (60, 150),
}
assert set(TASK_LENGTHS) == set(EVAL_TASKS)

ZIPF_EXPONENT = 1.1

# Share of perturbed tokens that are substituted; the rest split evenly
# between deletions and insertions, so prediction lengths vary too.
_SUBSTITUTE_SHARE = 0.7

_LATIN = "abcdefghijklmnopqrstuvwxyz"


# The slots of a syllable in writing order, each with the probability it
# is filled: leading vowel, consonant, vowel mark, tone mark, following
# vowel, final consonant.
_SLOTS = ((0.25, _LEADING_VOWELS), (1.0, _CONSONANTS), (0.6, _VOWEL_MARKS),
          (0.4, _TONE_MARKS), (0.3, _FOLLOWING_VOWELS), (0.5, _CONSONANTS))


def _word_shape(rng: random.Random) -> list[tuple[bool, ...]]:
    """Which slots each of one to three syllables fills."""
    return [tuple(rng.random() < p for p, _ in _SLOTS)
            for _ in range(rng.randint(1, 3))]


def _fill(shape: list[tuple[bool, ...]], rng: random.Random) -> str:
    return "".join(rng.choice(choices) for syllable in shape
                   for filled, (_, choices) in zip(syllable, _SLOTS)
                   if filled)


def thai_vocabulary(rng: random.Random, size: int) -> list[str]:
    """`size` distinct Thai-script words of one to three syllables, in
    rank order. Word shapes (syllable count and optional parts) come from
    a fixed sequence and only the letters from `rng`, so the length of
    the word at each rank, and with it the characters per token, does not
    depend on the seed."""
    shapes = random.Random("seedforge-bench-word-shapes")
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        shape = _word_shape(shapes)
        for _ in range(10):
            word = _fill(shape, rng)
            if word not in seen:
                seen.add(word)
                words.append(word)
                break
    return words


class ZipfSampler:
    """Draws words with probability proportional to rank ** -exponent."""

    def __init__(self, vocabulary: list[str], exponent: float):
        self.vocabulary = vocabulary
        self._cum = list(itertools.accumulate(
            (rank ** -exponent for rank in range(1, len(vocabulary) + 1))))

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.vocabulary, cum_weights=self._cum, k=k)


def perturb(tokens: list[str], rate: float, sampler: ZipfSampler,
            rng: random.Random) -> list[str]:
    """Each token is perturbed with probability `rate`: substituted by a
    fresh draw, deleted, or followed by an inserted draw."""
    out: list[str] = []
    for token in tokens:
        if rng.random() >= rate:
            out.append(token)
            continue
        roll = rng.random()
        if roll < _SUBSTITUTE_SHARE:
            out.extend(sampler.draw(rng, 1))
        elif roll < (1 + _SUBSTITUTE_SHARE) / 2:
            continue
        else:
            out.append(token)
            out.extend(sampler.draw(rng, 1))
    return out


def write_jsonl(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def _spread_lengths(bounds: tuple[int, int], count: int,
                    rng: random.Random) -> list[int]:
    """`count` lengths evenly spaced over the inclusive range, in seeded
    order: the token total of a task does not depend on the seed."""
    low, high = bounds
    lengths = [low + round(k * (high - low) / max(1, count - 1))
               for k in range(count)]
    rng.shuffle(lengths)
    return lengths


def eval_inputs(seed: int, pairs: int, rates: dict[str, float],
                vocabulary_size: int, directory: str) -> dict:
    """References plus one prediction file per system.

    Pair i gets task EVAL_TASKS[i % 7] and test set TEST_SETS[(i // 7) % 2],
    so every task appears in both test sets. Reference lengths are spread
    evenly over each task's range, so only the words depend on the seed.
    Returns the file paths and the share of distinct tokens among all
    tokens the embedding scorer will embed (prediction plus reference,
    per pair and system).
    """
    rng = random.Random(f"seedforge-bench-eval-{seed}")
    sampler = ZipfSampler(thai_vocabulary(rng, vocabulary_size),
                          ZIPF_EXPONENT)
    tasks = [EVAL_TASKS[i % len(EVAL_TASKS)] for i in range(pairs)]
    lengths = {task: _spread_lengths(TASK_LENGTHS[task], tasks.count(task),
                                     rng) for task in EVAL_TASKS}
    references = []
    for i, task in enumerate(tasks):
        test_set = TEST_SETS[(i // len(EVAL_TASKS)) % len(TEST_SETS)]
        tokens = sampler.draw(rng, lengths[task].pop())
        references.append({"id": f"pair-{i:05d}", "task": task,
                           "test_set": test_set,
                           "reference": " ".join(tokens)})
    refs_path = f"{directory}/references.jsonl"
    write_jsonl(refs_path, references)
    predictions = {}
    total = 0
    distinct: set[str] = set()
    for system, rate in rates.items():
        rows = []
        for ref in references:
            ref_tokens = ref["reference"].split()
            pred = " ".join(perturb(ref_tokens, rate, sampler, rng))
            rows.append({"id": ref["id"], "prediction": pred})
            pred_tokens = unicode_words(pred)
            ref_words = unicode_words(ref["reference"])
            if pred_tokens and ref_words:
                total += len(pred_tokens) + len(ref_words)
                distinct.update(pred_tokens)
                distinct.update(ref_words)
        path = f"{directory}/{system}.jsonl"
        write_jsonl(path, rows)
        predictions[system] = path
    return {"references": refs_path, "predictions": predictions,
            "distinct_token_share": len(distinct) / total if total else 0.0}


def external_corpus(seed: int, rows: int, path: str) -> None:
    """A prompt/response corpus in the pivot language (Latin-script
    pseudo-words), the input of the `none` ablation variant."""
    rng = random.Random(f"seedforge-bench-corpus-{seed}")

    def words(low: int, high: int) -> str:
        return " ".join(
            "".join(rng.choice(_LATIN) for _ in range(rng.randint(2, 9)))
            for _ in range(rng.randint(low, high)))

    write_jsonl(path, [{"prompt": words(5, 15).capitalize() + "?",
                        "response": words(10, 40).capitalize() + "."}
                       for _ in range(rows)])
