"""Length-prefixed JSON framing for the service layer.

Every message on a service socket — worker pull/result traffic, cache
daemon internals — is one JSON object framed as a 4-byte big-endian
length followed by that many UTF-8 bytes.  The framing is deliberately
dumb: no versioned envelopes, no compression, no partial frames.  A
peer that cannot parse a frame closes the connection, and the service
layer treats a closed connection as the failure unit (a worker death
requeues its in-flight point; a cache daemon outage degrades reads to
the local fallback).

The helpers work on anything with ``recv``/``sendall`` (a socket) or on
``makefile``-style binary streams via :func:`read_frame` /
:func:`write_frame`.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, BinaryIO, Dict, Optional

__all__ = [
    "WireError",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "send_message",
    "recv_message",
    "write_frame",
    "read_frame",
]

#: Refuse frames above this size (64 MiB): a corrupt length prefix must
#: not make a peer allocate gigabytes.
MAX_FRAME = 64 * 1024 * 1024

#: The worker protocol a ``hello`` frame must name.  Version 3 carries
#: every collector of a point, its replay log included, in one per-point
#: ``spec["collectors"]`` list; the server closes a connection that says
#: hello in any other version, so a stale worker cannot skip a collector.
PROTOCOL_VERSION = 3

_HEADER = struct.Struct(">I")


class WireError(ConnectionError):
    """A malformed frame or a connection that died mid-frame."""


def _encode(message: Dict[str, Any]) -> bytes:
    # No sort_keys: a result envelope must round-trip with its payload's
    # key order intact, or socket-worker sweeps would render different
    # JSON bytes than local ones.
    blob = json.dumps(message, separators=(",", ":"))
    data = blob.encode("utf-8")
    if len(data) > MAX_FRAME:
        raise WireError(f"frame of {len(data)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(data)) + data


def _decode(data: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # RecursionError: a frame nested deeper than the parser's stack.
        raise WireError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise WireError(f"frame is not a JSON object: {type(message).__name__}")
    return message


# -- socket flavour -------------------------------------------------------------


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Frame and send one JSON object over ``sock``."""
    sock.sendall(_encode(message))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Exactly ``n`` bytes from ``sock``, or None on clean EOF at a
    frame boundary; raises :class:`WireError` on EOF mid-frame."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise WireError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """One JSON object from ``sock``, or None on clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise WireError(f"frame length {length} exceeds MAX_FRAME")
    body = _recv_exact(sock, length)
    if body is None:
        raise WireError("connection closed between header and body")
    return _decode(body)


# -- stream flavour -------------------------------------------------------------


def write_frame(stream: BinaryIO, message: Dict[str, Any]) -> None:
    stream.write(_encode(message))
    stream.flush()


def read_frame(stream: BinaryIO) -> Optional[Dict[str, Any]]:
    header = stream.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise WireError("stream ended mid-header")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise WireError(f"frame length {length} exceeds MAX_FRAME")
    body = stream.read(length)
    if body is None or len(body) < length:
        raise WireError("stream ended mid-frame")
    return _decode(body)
