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

from seedforge.errors import ParseError, ValidationError
from seedforge.instructions import InstructionRecord
from seedforge.topics import Topic

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
        "topic": {"text": record.topic.text,
                  "category": record.topic.category,
                  "batch_id": record.topic.batch_id},
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
        topic = Topic(text=topic_data.get("text", ""),
                      category=topic_data.get("category", ""),
                      batch_id=int(topic_data.get("batch_id", 0)))
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
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def _encode(record: InstructionRecord) -> bytes:
    data = record_to_dict(record)
    line = json.dumps(data, ensure_ascii=False, separators=(",", ":"))
    return line.encode("utf-8")


def _write_atomic(path: str, blob: bytes) -> str:
    """Replace `path` with `blob` in one rename; returns its sha256."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
    os.replace(tmp, path)
    return hashlib.sha256(blob).hexdigest()


def write_json(path: str, payload) -> str:
    """Indented, key-sorted UTF-8 JSON, written atomically; returns its
    sha256."""
    blob = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
    return _write_atomic(path, (blob + "\n").encode("utf-8"))


def write_jsonl(path: str, rows: list[dict]) -> str:
    """One compact JSON object per line, written atomically; returns its
    sha256."""
    blob = "".join(json.dumps(row, ensure_ascii=False, separators=(",", ":"))
                   + "\n" for row in rows)
    return _write_atomic(path, blob.encode("utf-8"))


def read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def read_jsonl_lines(path: str) -> list[tuple[int, object]]:
    """(line number, value) for every non-blank line; malformed JSON
    raises ValidationError naming the line."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                rows.append((line_no, json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"{path} line {line_no}: {exc}") from None
    return rows


def write_records(records: list[InstructionRecord], path: str) -> str:
    """Write one JSONL file atomically; returns its sha256 hex digest."""
    seen: set[str] = set()
    chunks: list[bytes] = []
    for record in records:
        if record.id in seen:
            raise ValidationError(f"duplicate record id {record.id}")
        seen.add(record.id)
        chunks.append(_encode(record))
    return _write_atomic(path, b"\n".join(chunks) + (b"\n" if chunks
                                                     else b""))


def read_records(path: str) -> list[InstructionRecord]:
    with open(path, "rb") as handle:
        raw = handle.read()
    records: list[InstructionRecord] = []
    seen: set[str] = set()
    for line_no, line in enumerate(raw.split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} line {line_no}: not valid UTF-8 "
                             f"({exc})") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path} line {line_no}: {exc}") from None
        record = record_from_dict(data, where=f"{path} line {line_no}")
        if record.id in seen:
            raise ValidationError(
                f"{path} line {line_no}: duplicate record id {record.id}")
        seen.add(record.id)
        records.append(record)
    return records


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
