"""The bracket scanner against the per-character loop it replaced."""

import inspect
import random

import pytest

from seedforge.parsing import balanced_spans


def stepping_spans(text, open_ch, close_ch):
    """The scan one character at a time: the reference."""
    depth = 0
    start = -1
    quote = None
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if quote is not None:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in "\"'":
            if depth > 0:
                quote = ch
        elif ch == open_ch:
            if depth == 0:
                start = i
            depth += 1
        elif ch == close_ch and depth > 0:
            depth -= 1
            if depth == 0:
                yield text[start:i + 1]
        i += 1


PAIRS = ["[]", "{}"]


@pytest.mark.parametrize("pair", PAIRS)
def test_equals_the_stepping_scan_on_seeded_strings(pair):
    rng = random.Random(2024)
    alphabet = "[]{}\"'\\ab x"
    for _ in range(100_000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 24)))
        assert (list(balanced_spans(text, *pair))
                == list(stepping_spans(text, *pair))), text


@pytest.mark.parametrize("text, pair, spans", [
    # An unterminated string ends the scan: no later span is yielded.
    ('[a] ["b ] [c]', "[]", ["[a]"]),
    ("{'k': 1} {'v} {x}", "{}", ["{'k': 1}"]),
    # A quote outside every region is plain text.
    ('say "[a]" and \'{b}\'', "[]", ['[a]']),
    ('say "[a]" and \'{b}\'', "{}", ["{b}"]),
    # Brackets inside a string, escapes and the other pair do not count.
    ('[["]", "\\"]", {]}]', "[]", ['[["]", "\\"]", {]}]']),
    ('x [a\\] b] [c', "[]", ["[a\\]"]),
    ("[\"a\\\\\"] ['\\'']", "[]", ["[\"a\\\\\"]", "['\\'']"]),
    ('["a\\', "[]", []),
])
def test_marked_cases(text, pair, spans):
    assert list(balanced_spans(text, *pair)) == spans
    assert list(stepping_spans(text, *pair)) == spans


def test_spans_are_yielded_lazily():
    spans = balanced_spans("[1] [2", "[", "]")
    assert inspect.isgenerator(spans)
    assert next(spans) == "[1]"
    assert list(spans) == []
