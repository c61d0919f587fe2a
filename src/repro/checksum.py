"""Checksummed pickles, the byte form of the store's compiled programs
and database snapshots: a magic tag, the payload's SHA-256, then the
payload.  A truncated, bit-flipped or foreign file fails :func:`loads`
instead of unpickling into a different value."""

from __future__ import annotations

import hashlib
import pickle
from typing import Any, Type


def dumps(magic: bytes, obj: Any) -> bytes:
    """``magic`` + SHA-256 of the pickle of ``obj`` + that pickle."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return magic + hashlib.sha256(payload).digest() + payload


def loads(magic: bytes, data: bytes, error: Type[Exception], what: str) -> Any:
    """Unpickle :func:`dumps` output; a wrong tag or digest raises
    ``error`` naming the file kind ``what``."""
    head = len(magic)
    if data[:head] != magic:
        raise error(f"not a {what}")
    view = memoryview(data)  # no copy of the payload
    digest, payload = view[head:head + 32], view[head + 32:]
    if hashlib.sha256(payload).digest() != digest:
        raise error(f"{what} fails its checksum")
    return pickle.loads(payload)
