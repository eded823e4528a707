"""Lenient extraction of structured values from model output.

Models wrap payloads in prose, code fences, or single quotes. The helpers
here scan for the first balanced bracket region that parses into the wanted
shape and fail with ParseError (carrying the raw text) otherwise. They never
return a partially valid value.
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


def balanced_spans(text: str, open_ch: str, close_ch: str):
    """Yield every outermost balanced `open_ch ... close_ch` substring.

    Quote-aware: brackets inside single- or double-quoted strings do not
    count toward nesting. Unterminated regions are not yielded.
    """
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


def extract_string_list(raw: str) -> list[str]:
    """Find the first bracketed list of strings in raw model output.

    Items are stripped of surrounding whitespace and quotes; empty items are
    dropped. Raises ParseError when no list can be recovered.
    """
    if not raw or not raw.strip():
        raise ParseError("empty output where a list was expected", raw=raw)
    text = strip_code_fences(raw)
    for span in balanced_spans(text, "[", "]"):
        value = loads_lenient(span)
        if isinstance(value, list) and value and all(
                isinstance(x, str) for x in value):
            items = [x.strip() for x in value if x.strip()]
            if items:
                return items
        if value is None:
            items = _split_flat_list(span)
            if items:
                logger.debug("recovered list via flat split: %.60s", span)
                return items
    raise ParseError("no parseable list of strings found", raw=raw)


def extract_dict_list(raw: str, required_keys: tuple[str, ...]) -> list[dict]:
    """Find the first bracketed list of dicts, each carrying required_keys.

    Every element must validate; a list with one malformed element is
    rejected as a whole rather than silently truncated.
    """
    if not raw or not raw.strip():
        raise ParseError("empty output where a list was expected", raw=raw)
    text = strip_code_fences(raw)
    for span in balanced_spans(text, "[", "]"):
        value = loads_lenient(span)
        if not isinstance(value, list) or not value:
            continue
        if not all(isinstance(x, dict) for x in value):
            continue
        ok = all(
            all(isinstance(x.get(k), str) and x[k].strip()
                for k in required_keys)
            for x in value)
        if ok:
            return [
                {k: v.strip() if isinstance(v, str) else v
                 for k, v in x.items()}
                for x in value
            ]
    raise ParseError(
        f"no list of dicts with keys {list(required_keys)} found", raw=raw)
