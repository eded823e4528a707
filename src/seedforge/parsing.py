"""Lenient extraction of structured values from model output.

Models wrap payloads in prose, code fences, or single quotes. The helpers
here scan for the first balanced bracket region that parses into the wanted
shape and fail with ParseError (carrying the raw text) otherwise. They never
return a partially valid value.

The bracket scan jumps instead of stepping through every character:
`str.find` to the next opening bracket outside a region, one compiled
character class to the next bracket or quote inside one, and `str.find`
again to the quote that closes a string, or to a backslash before it that
escapes the next character.
"""

from __future__ import annotations

import ast
import json
import logging
import re

from seedforge.errors import ParseError

logger = logging.getLogger(__name__)

_FENCE_RE = re.compile(r"```(?:json|python)?\s*(.*?)```", re.DOTALL)


def strip_code_fences(raw: str) -> str:
    """Replace fenced blocks with their body so bracket scanning sees them."""
    return _FENCE_RE.sub(lambda m: m.group(1), raw)


# Every character that can change the scan's state inside a bracket
# region, for both bracket pairs the parsers use.
_MARKS = re.compile(r"""[][{}"']""")


def balanced_spans(text: str, open_ch: str, close_ch: str):
    """Yield every outermost balanced `open_ch ... close_ch` substring,
    for the pair "[]" or "{}".

    Quote-aware: inside a bracket region, a single or double quote opens
    a string that runs to the next unescaped quote of the same kind, and
    brackets inside it do not count toward nesting. A quote outside every
    region is plain text. An unterminated region is not yielded, and an
    unterminated string ends the scan.
    """
    find = text.find
    search = _MARKS.search
    start = find(open_ch)
    while start >= 0:
        depth = 1
        pos = start + 1
        while depth:
            mark = search(text, pos)
            if mark is None:
                return
            pos = mark.end()
            ch = mark.group()
            if ch == open_ch:
                depth += 1
            elif ch == close_ch:
                depth -= 1
            elif ch == "'" or ch == '"':
                end = find(ch, pos)
                while end >= 0:
                    escape = find("\\", pos, end)
                    if escape < 0:
                        break
                    pos = escape + 2
                    end = find(ch, pos)
                if end < 0:
                    return
                pos = end + 1
        yield text[start:pos]
        start = find(open_ch, pos)


def loads_lenient(fragment: str):
    """Parse a JSON-ish fragment: strict JSON first, then a Python literal.

    Returns None when neither succeeds.
    """
    for parse in (json.loads, ast.literal_eval):
        try:
            return parse(fragment)
        except (ValueError, SyntaxError, TypeError, MemoryError,
                RecursionError):
            continue
    return None


def _strip_quotes(item: str) -> str:
    item = item.strip()
    if len(item) >= 2 and item[0] == item[-1] and item[0] in "\"'":
        item = item[1:-1]
    return item.strip()


def _split_flat_list(fragment: str) -> list[str] | None:
    # Last-ditch handling for unquoted or mixed-quote lists. Refuse anything
    # with nesting; a wrong split there would fabricate items.
    inner = fragment.strip()[1:-1]
    if any(ch in inner for ch in "[]{}"):
        return None
    items = [_strip_quotes(part) for part in inner.split(",")]
    items = [it for it in items if it]
    return items or None


def first_picked(raw: str, brackets: str, pick, expected: str,
                 missing: str):
    """The first non-None pick(loads_lenient(span), span) over the
    balanced `brackets` spans of raw, code fences stripped. Blank raw or
    no picked span raises ParseError."""
    if not raw or not raw.strip():
        raise ParseError(f"empty output where {expected} was expected",
                         raw=raw)
    for span in balanced_spans(strip_code_fences(raw), *brackets):
        picked = pick(loads_lenient(span), span)
        if picked is not None:
            return picked
    raise ParseError(missing, raw=raw)


def extract_string_list(raw: str) -> list[str]:
    """Find the first bracketed list of strings in raw model output.

    Items are stripped of surrounding whitespace and quotes; empty items are
    dropped. Raises ParseError when no list can be recovered.
    """
    def pick(value, span):
        if isinstance(value, list) and all(isinstance(x, str) for x in value):
            return [x.strip() for x in value if x.strip()] or None
        if value is not None:
            return None
        items = _split_flat_list(span)
        if items:
            logger.debug("recovered list via flat split: %.60s", span)
        return items

    return first_picked(raw, "[]", pick, "a list",
                        "no parseable list of strings found")


def extract_dict_list(raw: str, required_keys: tuple[str, ...]) -> list[dict]:
    """Find the first bracketed list of dicts, each carrying required_keys.

    Every element must validate; a list with one malformed element is
    rejected as a whole rather than silently truncated.
    """
    def pick(value, span):
        if not isinstance(value, list) or not value or not all(
                isinstance(x, dict) and all(
                    isinstance(x.get(k), str) and x[k].strip()
                    for k in required_keys)
                for x in value):
            return None
        return [{k: v.strip() if isinstance(v, str) else v
                 for k, v in x.items()}
                for x in value]

    return first_picked(
        raw, "[]", pick, "a list",
        f"no list of dicts with keys {list(required_keys)} found")
