"""Record persistence.

JSON Lines, UTF-8, one record per line, keys always in the same order so a
rewrite of equal records is byte-identical. Reading is strict: malformed
JSON, duplicate ids, missing keys, or invalid field combinations all fail
with the offending line number instead of yielding partial data.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, suppress
from itertools import islice

from seedforge.errors import ParseError, ValidationError
from seedforge.instructions import InstructionRecord
from seedforge.topics import topic_from_dict, topic_to_dict

_KEY_ORDER = ("id", "task", "instruction", "context", "output", "topic",
              "language", "lineage", "flags", "provenance")

_FLAG_KEYS = ("fluency", "culture", "diversity")


def record_to_dict(record: InstructionRecord) -> dict:
    if record.flags is not None:
        extra = set(record.flags) - set(_FLAG_KEYS)
        missing = set(_FLAG_KEYS) - set(record.flags)
        if extra or missing:
            raise ValidationError(
                f"record {record.id}: flags must have exactly the keys "
                f"{', '.join(_FLAG_KEYS)}")
        flags = {k: bool(record.flags[k]) for k in _FLAG_KEYS}
    else:
        flags = None
    return {
        "id": record.id,
        "task": record.task,
        "instruction": record.instruction,
        "context": record.context,
        "output": record.output,
        "topic": topic_to_dict(record.topic),
        "language": record.language,
        "lineage": list(record.lineage),
        "flags": flags,
        "provenance": record.provenance,
    }


def record_from_dict(data: dict, where: str = "record") -> InstructionRecord:
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected an object, got "
                         f"{type(data).__name__}")
    missing = [k for k in _KEY_ORDER if k not in data]
    if missing:
        raise ParseError(f"{where}: missing keys {', '.join(missing)}")
    topic_data = data["topic"]
    if not isinstance(topic_data, dict):
        raise ParseError(f"{where}: topic must be an object")
    try:
        topic = topic_from_dict(topic_data)
        lineage = data["lineage"]
        if (not isinstance(lineage, list)
                or not all(isinstance(x, str) for x in lineage)):
            raise ValidationError("lineage must be a list of strings")
        flags = data["flags"]
        if flags is not None and not isinstance(flags, dict):
            raise ValidationError("flags must be an object or null")
        provenance = data["provenance"]
        if not isinstance(provenance, dict):
            raise ValidationError("provenance must be an object")
        return InstructionRecord(
            id=data["id"], task=data["task"],
            instruction=data["instruction"], context=data["context"],
            output=data["output"], topic=topic, language=data["language"],
            lineage=tuple(lineage), flags=flags, provenance=provenance)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    except KeyError as exc:
        raise ParseError(f"{where}: topic has no {exc} key") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def write_atomic(path: str, blobs: Iterable) -> str:
    """Replace `path` with the bytes-like items of `blobs`, taken one at a
    time and written one after another, in one rename; returns the sha256
    of the file. A write that fails leaves `path` as it was and no
    temporary file."""
    digest = hashlib.sha256()
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as handle:
            for blob in blobs:
                handle.write(blob)
                digest.update(blob)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise
    os.replace(tmp, path)
    return digest.hexdigest()


def write_json(path: str, payload) -> str:
    """Indented, key-sorted UTF-8 JSON, written atomically; returns its
    sha256."""
    blob = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
    return write_atomic(path, [(blob + "\n").encode("utf-8")])


# The compact form of one JSONL row, one encoder for every row of a file.
_JSONL_ROW = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))

# Rows a JSONL writer encodes at once: a chunk's rows, their text and
# their bytes are all of a file that is alive while it is written.
CHUNK_ROWS = 256


def jsonl_chunks(rows: Iterable[dict]) -> Iterator[bytes]:
    """One compact JSON object per line, UTF-8, CHUNK_ROWS lines to a
    chunk; rows are taken only as the chunks are."""
    encode = _JSONL_ROW.encode
    rows = iter(rows)
    while chunk := list(islice(rows, CHUNK_ROWS)):
        yield "".join([encode(row) + "\n" for row in chunk]).encode("utf-8")


def write_jsonl(path: str, rows: Iterable[dict]) -> str:
    """jsonl_chunks(rows), written atomically; returns its sha256."""
    return write_atomic(path, jsonl_chunks(rows))


def read_json(path: str):
    """One JSON document; bad UTF-8 or bad JSON raises ParseError naming
    the file."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from None


@contextmanager
def parsing(path: str, what: str, line_no: int | None = None):
    """Turn a KeyError, TypeError or ValueError raised while building
    values from the parsed contents of `path` into a ParseError naming
    the file, what it should have held and, if given, the line."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        at = f" at line {line_no}" if line_no else ""
        raise ParseError(f"{path}: not {what} ({type(exc).__name__}: "
                         f"{exc}){at}") from None


def read_jsonl_lines(path: str) -> Iterator[tuple[int, object]]:
    """(line number, value) for every non-blank line; bad UTF-8 or bad
    JSON raises ParseError naming the line."""
    with open(path, "rb") as handle:
        raw = handle.read()
    for line_no, line in enumerate(raw.split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} line {line_no}: not valid UTF-8 "
                             f"({exc})") from None
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path} line {line_no}: {exc}") from None
        yield line_no, value


def record_chunks(records: Iterable[InstructionRecord]) -> Iterator[bytes]:
    """The JSONL bytes of records, in chunks; a repeated id is an error."""
    seen: set[str] = set()

    def rows():
        for record in records:
            if record.id in seen:
                raise ValidationError(f"duplicate record id {record.id}")
            seen.add(record.id)
            yield record_to_dict(record)

    return jsonl_chunks(rows())


def write_records(records: Iterable[InstructionRecord], path: str) -> str:
    """Write one JSONL file atomically, a chunk of records at a time;
    returns its sha256 hex digest."""
    return write_atomic(path, record_chunks(records))


def read_records(path: str) -> list[InstructionRecord]:
    records: list[InstructionRecord] = []
    seen: set[str] = set()
    for line_no, data in read_jsonl_lines(path):
        record = record_from_dict(data, where=f"{path} line {line_no}")
        if record.id in seen:
            raise ValidationError(
                f"{path} line {line_no}: duplicate record id {record.id}")
        seen.add(record.id)
        records.append(record)
    return records


# Every line write_records writes starts with the record's id.
_ID_PREFIX = b'{"id":'
_DECODER = json.JSONDecoder()


def read_ids(path: str) -> list[str]:
    """The id of every record of a file that write_records wrote, in file
    order, read from the start of each line: the rest of the line is not
    parsed and no record is built."""
    ids = []
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            with parsing(path, "a records file", line_no):
                if not line.startswith(_ID_PREFIX):
                    raise ValueError("the line does not start with an id")
                rid, _ = _DECODER.raw_decode(line.decode("utf-8"),
                                             len(_ID_PREFIX))
                if not isinstance(rid, str):
                    raise TypeError(f"record id {rid!r} is not a string")
            ids.append(rid)
    return ids


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
