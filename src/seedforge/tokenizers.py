"""Tokenizers for the text metrics.

Thai does not separate words with spaces, so every metric takes the
tokenizer as a parameter instead of assuming one. Three are provided:
Unicode word matching (the default for word-level metrics), non-whitespace
characters (robust for unsegmented scripts), and plain whitespace splitting.
All of them map empty or whitespace-only input to an empty list.
"""

from __future__ import annotations

import unicodedata
from typing import Callable

Tokenizer = Callable[[str], list[str]]


def _is_word_char(ch: str) -> bool:
    # Combining marks count as word characters: regex \w drops them, which
    # would split Thai (and any other combining script) inside every word.
    return (ch == "_" or ch.isalnum()
            or unicodedata.category(ch).startswith("M"))


class SpaceOutTable(dict):
    """A str.translate table that keeps the characters `keep` accepts and
    maps every other character to a space.

    Each code point is classified on its first lookup and remembered, so
    the table holds only code points seen so far and nothing is built at
    import.
    """

    def __init__(self, keep: Callable[[str], bool]):
        super().__init__()
        self._keep = keep

    def __missing__(self, point: int) -> int:
        mapped = point if self._keep(chr(point)) else 0x20
        self[point] = mapped
        return mapped


_WORD_CHARS = SpaceOutTable(_is_word_char)


def unicode_words(text: str) -> list[str]:
    """Runs of Unicode word characters, marks included. Thai text without
    spaces comes out as one token per run, which is crude but
    deterministic. No word character is whitespace, so splitting at
    whitespace after the translation splits exactly between runs."""
    return text.translate(_WORD_CHARS).split()


def characters(text: str) -> list[str]:
    """Every non-whitespace character as its own token."""
    return [ch for ch in text if not ch.isspace()]


def whitespace(text: str) -> list[str]:
    return text.split()


TOKENIZERS: dict[str, Tokenizer] = {
    "unicode_words": unicode_words,
    "characters": characters,
    "whitespace": whitespace,
}


def get_tokenizer(name: str) -> Tokenizer:
    try:
        return TOKENIZERS[name]
    except KeyError:
        raise ValueError(
            f"unknown tokenizer {name!r}; choose from "
            f"{', '.join(sorted(TOKENIZERS))}") from None
