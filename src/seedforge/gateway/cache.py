"""Content-addressed response cache.

Cache keys are the sha256 of a canonical JSON encoding of the request:
provider id, operation name, and normalized parameters (prompt text included
verbatim). One file per key; the file body is the JSON-encoded response
payload.

Every write goes to its own temp file in the cache directory (mkstemp) and
is moved into place with os.replace. A crashed writer therefore never
leaves a truncated entry, and concurrent writers of one key, in one process
or several, never share a temp file: each replace installs a complete
entry and the last one wins.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"))


def request_key(provider_id: str, operation: str, params: dict) -> str:
    """Stable hex digest identifying one provider request."""
    body = canonical_json(
        {"provider": provider_id, "op": operation, "params": params})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class ResponseCache:
    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Any | None:
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except (FileNotFoundError, ValueError):
            # A missing or damaged entry (bad JSON or bytes that are not
            # UTF-8, both ValueErrors) is a miss; the caller overwrites it
            # atomically.
            return None

    def put(self, key: str, payload: Any) -> None:
        fd, tmp = tempfile.mkstemp(prefix=f"{key}.", suffix=".tmp",
                                   dir=self.directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, ensure_ascii=False)
            os.replace(tmp, self._path(key))
        except BaseException:
            os.unlink(tmp)
            raise


class NullCache:
    """Cache-less mode: every call reaches the provider."""

    def get(self, key: str) -> None:
        return None

    def put(self, key: str, payload: Any) -> None:
        return None
