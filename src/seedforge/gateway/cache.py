"""Content-addressed response cache: one append-only log per directory.

Cache keys are the sha256 of a canonical JSON encoding of the request:
provider id, operation name, and normalized parameters (prompt text included
verbatim).

Every entry is one frame appended to RESPONSE_LOG, a Bitcask-style log with
an in-memory key directory (Sheehy & Smith, 2010). A frame is a fixed header
(the raw 32-byte key, the sha256 of the body, a 1-byte kind and the body
length) followed by the body. A JSON_KIND body is the {"payload": ...} entry
as UTF-8 JSON; a ROWS_KIND body is an (n, d) float64 block, its shape and
then its little-endian bytes.

Opening the log scans it one frame at a time and checks each body's sha256;
the first frame that is short or damaged ends the log. The key directory
maps each key to the kind, offset and length of its last frame and holds no
payloads. A get first indexes any frames that other writers appended. A put
holds a thread lock and an exclusive flock on the log, indexes what others
appended, truncates a torn tail left by a killed writer, and appends its
frame, so writers in several processes can share one directory.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import struct
import threading
import weakref
from pathlib import Path
from typing import Any

import numpy as np

RESPONSE_LOG = "responses.log"
JSON_KIND = 1
ROWS_KIND = 2
_HEADER = struct.Struct("<32s32sBI")  # key, body sha256, kind, body length
_SHAPE = struct.Struct("<QQ")


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"))


def request_key(provider_id: str, operation: str, params: dict) -> str:
    """Stable hex digest identifying one provider request."""
    body = canonical_json(
        {"provider": provider_id, "op": operation, "params": params})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _encode(entry: Any) -> tuple[int, bytes]:
    """The frame kind and body of one entry. An entry whose payload is an
    (n, d) array is stored as float64 rows, anything else as JSON."""
    payload = entry.get("payload")
    if isinstance(payload, np.ndarray):
        block = np.ascontiguousarray(payload, dtype="<f8")
        return ROWS_KIND, _SHAPE.pack(*block.shape) + block.tobytes()
    return JSON_KIND, json.dumps(entry, ensure_ascii=False).encode("utf-8")


def _decode(kind: int, body: bytes) -> Any:
    """The entry of one frame body. Raises ValueError when the body does
    not decode."""
    if kind == JSON_KIND:
        return json.loads(body.decode("utf-8"))
    if len(body) < _SHAPE.size:
        raise ValueError("rows frame without a shape")
    rows, dim = _SHAPE.unpack_from(body)
    if len(body) != _SHAPE.size + 8 * rows * dim:
        raise ValueError(f"rows frame of {len(body)} bytes is not "
                         f"{rows} x {dim} float64 values")
    return {"payload": np.frombuffer(body, "<f8", offset=_SHAPE.size)
            .reshape(rows, dim)}


class ResponseCache:
    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(self.directory / RESPONSE_LOG,
                           os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        weakref.finalize(self, os.close, self._fd)
        self._lock = threading.Lock()
        self._index: dict[str, tuple[int, int, int]] = {}
        self._end = 0  # end of the last good frame
        with self._lock:
            self._catch_up()

    def _catch_up(self) -> int:
        """Index the frames past the last good one and return the file
        size. The caller holds self._lock."""
        size = os.fstat(self._fd).st_size
        if size < self._end:
            # cut below what was indexed: index the log again
            self._index.clear()
            self._end = 0
        offset = self._end
        while offset + _HEADER.size <= size:
            header = os.pread(self._fd, _HEADER.size, offset)
            if len(header) < _HEADER.size:
                break
            raw_key, digest, kind, length = _HEADER.unpack(header)
            start = offset + _HEADER.size
            if kind not in (JSON_KIND, ROWS_KIND) or start + length > size:
                break
            body = os.pread(self._fd, length, start)
            if hashlib.sha256(body).digest() != digest:
                break
            self._index[raw_key.hex()] = (kind, start, length)
            offset = start + length
        self._end = offset
        return size

    def get(self, key: str) -> Any | None:
        if os.fstat(self._fd).st_size != self._end:
            with self._lock:
                self._catch_up()
        found = self._index.get(key)
        if found is None:
            return None
        kind, offset, length = found
        try:
            return _decode(kind, os.pread(self._fd, length, offset))
        except ValueError:
            # A frame that does not decode (bad JSON or bytes that are not
            # UTF-8) is a miss; the caller appends a good one after it.
            return None

    def put(self, key: str, entry: Any) -> None:
        kind, body = _encode(entry)
        frame = _HEADER.pack(bytes.fromhex(key),
                             hashlib.sha256(body).digest(), kind,
                             len(body)) + body
        with self._lock:
            fcntl.flock(self._fd, fcntl.LOCK_EX)
            try:
                if self._catch_up() > self._end:
                    # a killed writer's torn tail: a good frame never
                    # lands after it
                    os.ftruncate(self._fd, self._end)
                view = memoryview(frame)
                while view:
                    view = view[os.write(self._fd, view):]
                start = self._end + _HEADER.size
                self._index[key] = (kind, start, len(body))
                self._end = start + len(body)
            finally:
                fcntl.flock(self._fd, fcntl.LOCK_UN)

