"""Payload size estimation for the MPI simulator."""

from __future__ import annotations

import sys
from typing import Any

__all__ = ["payload_size"]


def payload_size(obj: Any) -> int:
    """Estimate the wire size of a Python payload, in bytes.

    numpy arrays report their true buffer size; scalars count as one
    8-byte element; containers sum their elements plus a small per-item
    header, mirroring a pickle-based transport like mpi4py's lowercase
    API.

    numpy is looked up, never imported: no array or numpy scalar can
    exist unless numpy is already loaded.  Its checks come before
    ``bytes``/``str`` because ``np.bytes_`` and ``np.str_`` subclass
    both, and count as scalars.
    """
    if obj is None or isinstance(obj, (bool, int, float, complex)):
        return 8
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.ndarray):
            return int(obj.nbytes)
        if isinstance(obj, np.generic):
            return 8
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 16 + sum(payload_size(x) + 8 for x in obj)
    if isinstance(obj, dict):
        return 16 + sum(
            payload_size(k) + payload_size(v) + 16 for k, v in obj.items()
        )
    size_hint = getattr(obj, "payload_bytes", None)
    if callable(size_hint):
        return int(size_hint())
    return 64
