"""Deterministic seed derivation.

Every random choice in the pipeline draws from a seed derived from the build
seed plus a stable string path (never from execution order), which is what
makes reruns and resumed runs byte-identical.
"""

from __future__ import annotations

import hashlib


def derive_seed(*parts) -> int:
    """Map (build_seed, "stage", key, ...) to a stable 63-bit seed."""
    tag = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
