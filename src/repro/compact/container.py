"""The one sealed container under VGVZ traces and RRLG order logs.

Layout: ``<4 magic bytes> <version byte> <payload> <seal>``, the seal
being the 4-byte little-endian CRC-32 of every byte before it.  Payload
strings are interned per stream: ``0 <uvarint len> <utf-8>`` on first
use, ``<uvarint id+1>`` after.  A :class:`Reader` checks magic, version
and seal before it hands out a field, so any damaged byte raises
:class:`DecodeError`; the seal detects damage, it does not authenticate
the writer.  :func:`to_ascii` / :func:`from_ascii` are the one base64
hop for blobs that ride JSON.
"""

from __future__ import annotations

import base64
import zlib
from typing import Dict, List

from .varint import DecodeError, DeltaDecoder, decode_uvarint, encode_uvarint, unzigzag

__all__ = ["DecodeError", "Writer", "Reader", "to_ascii", "from_ascii"]

_SEAL_BYTES = 4


class Writer:
    """Encode side: fields go into ``out``; :meth:`take` hands them on,
    :meth:`seal` once at the end of the stream."""

    __slots__ = ("out", "_ids", "_crc")

    def __init__(self, magic: bytes, version: int) -> None:
        self.out = bytearray(magic)
        self.out.append(version)
        self._ids: Dict[str, int] = {}
        self._crc = 0

    def string(self, s: str) -> None:
        """Append ``s``, interned: its bytes once, its id after that."""
        sid = self._ids.get(s)
        if sid is not None:
            encode_uvarint(sid + 1, self.out)
            return
        data = s.encode("utf-8")
        self.out.append(0)
        encode_uvarint(len(data), self.out)
        self.out += data
        self._ids[s] = len(self._ids)

    def take(self) -> bytes:
        """The pending bytes, folded into the seal; ``out`` restarts empty."""
        data = bytes(self.out)
        self.out.clear()
        self._crc = zlib.crc32(data, self._crc)
        return data

    def seal(self) -> bytes:
        """The pending bytes and the seal that ends the stream."""
        data = self.take()
        return data + self._crc.to_bytes(_SEAL_BYTES, "little")


class Reader:
    """Decode side: a bounds-checked cursor over one verified payload
    (``kind``, e.g. "VGVZ trace", names the format in errors)."""

    __slots__ = ("_data", "_pos", "_strings")

    def __init__(self, data: bytes, magic: bytes, version: int, kind: str) -> None:
        if data[:4] != magic:
            raise DecodeError(f"not a {kind} (bad magic)")
        if len(data) > 4 and data[4] != version:
            raise DecodeError(f"unsupported {kind} version {data[4]}")
        body = data[:-_SEAL_BYTES]
        if (len(body) < 5
                or zlib.crc32(body).to_bytes(_SEAL_BYTES, "little")
                != data[-_SEAL_BYTES:]):
            raise DecodeError(f"truncated or corrupt {kind}: checksum mismatch")
        self._data = body[5:]
        self._pos = 0
        self._strings: List[str] = []

    def end(self) -> bool:
        """True once every payload byte has been read."""
        return self._pos >= len(self._data)

    def byte(self) -> int:
        try:
            value = self._data[self._pos]
        except IndexError:
            raise DecodeError("truncated payload") from None
        self._pos += 1
        return value

    def uvarint(self) -> int:
        value, self._pos = decode_uvarint(self._data, self._pos)
        return value

    def svarint(self) -> int:
        return unzigzag(self.uvarint())

    def float(self, deltas: DeltaDecoder) -> float:
        """One timestamp through the stream's ``deltas`` registers."""
        value, self._pos = deltas.decode(self._data, self._pos)
        return value

    def string(self) -> str:
        sid = self.uvarint()
        if sid:
            try:
                return self._strings[sid - 1]
            except IndexError:
                raise DecodeError(f"bad string reference {sid}") from None
        length = self.uvarint()
        start = self._pos
        if start + length > len(self._data):
            raise DecodeError("truncated string")
        try:
            s = self._data[start:start + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"bad string: {exc}") from None
        self._pos = start + length
        self._strings.append(s)
        return s


def to_ascii(data: bytes) -> str:
    """``data`` as base64 text, for JSON documents and frames."""
    return base64.b64encode(data).decode("ascii")


def from_ascii(text: str) -> bytes:
    """Inverse of :func:`to_ascii`; any non-base64 character fails."""
    try:
        return base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:
        raise DecodeError(f"not base64: {exc}") from None
