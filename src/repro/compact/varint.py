"""Integer and timestamp framing primitives of the compact trace codec.

Three layers, each exactly invertible:

* **LEB128 varints** — non-negative integers in 7-bit groups, low group
  first, high bit = continuation.  Small values (record opcodes, fids,
  loop counts) cost one byte.
* **ZigZag** — signed-to-unsigned folding (0, -1, 1, -2, ... -> 0, 1,
  2, 3, ...) so small-magnitude deltas of either sign stay short.
  Implemented arithmetically, so it is correct for arbitrary-precision
  Python integers (bit-pattern deltas can exceed 64 bits when the sign
  flips).
* **Timestamp deltas** — a float is mapped to the signed 64-bit integer
  holding its IEEE-754 bit pattern.  For finite doubles of one sign the
  bit pattern is monotonic in the value and *affine within a binade*,
  so a loop with a constant time step produces a constant bit-pattern
  delta — which the second-order (delta-of-delta) encoder collapses to
  a single zero byte per timestamp.  Encoding bit patterns (not
  quantized values) is what makes the codec lossless: every float,
  including -0.0, subnormals, infinities and NaN payloads, round-trips
  bit-for-bit.

:class:`DeltaEncoder`/:class:`DeltaDecoder` hold the per-stream
registers (previous bits, previous delta); one pair per trace buffer
keeps buffers independently decodable.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

__all__ = [
    "DecodeError",
    "encode_uvarint",
    "decode_uvarint",
    "zigzag",
    "unzigzag",
    "float_to_bits",
    "bits_to_float",
    "DeltaEncoder",
    "DeltaDecoder",
]

_PACK_D = struct.Struct("<d")
_PACK_Q = struct.Struct("<q")


class DecodeError(ValueError):
    """Truncated, damaged or foreign bytes (see :mod:`.container`)."""


def encode_uvarint(value: int, out: bytearray) -> None:
    """Append ``value`` (>= 0) to ``out`` as an LEB128 varint."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    """Read one LEB128 varint at ``pos``; returns ``(value, new_pos)``."""
    result = 0
    shift = 0
    while True:
        try:
            byte = data[pos]
        except IndexError:
            raise DecodeError("truncated varint") from None
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def zigzag(n: int) -> int:
    """Fold a signed integer into a non-negative one, small stays small."""
    return n * 2 if n >= 0 else -n * 2 - 1


def unzigzag(z: int) -> int:
    """Inverse of :func:`zigzag`."""
    return z >> 1 if z % 2 == 0 else -(z >> 1) - 1


def float_to_bits(value: float) -> int:
    """The signed 64-bit integer holding ``value``'s IEEE-754 pattern."""
    return _PACK_Q.unpack(_PACK_D.pack(value))[0]


def bits_to_float(bits: int) -> float:
    """Inverse of :func:`float_to_bits`."""
    return _PACK_D.unpack(_PACK_Q.pack(bits))[0]


class DeltaEncoder:
    """Second-order delta encoder over float bit patterns.

    Emits ``zigzag(delta - previous_delta)`` where ``delta`` is the
    bit-pattern difference to the previous value; a periodic timestamp
    stream (constant step within a binade) therefore costs one zero
    byte per value after the second sample.
    """

    __slots__ = ("_bits", "_delta")

    def __init__(self) -> None:
        self._bits = 0
        self._delta = 0

    def encode(self, value: float, out: bytearray) -> None:
        """Append the framed encoding of ``value`` to ``out``."""
        bits = float_to_bits(value)
        delta = bits - self._bits
        encode_uvarint(zigzag(delta - self._delta), out)
        self._bits = bits
        self._delta = delta

    def encode_many(self, values: List[float], out: bytearray) -> None:
        """Append every value of ``values`` in order."""
        for value in values:
            self.encode(value, out)


class DeltaDecoder:
    """Mirror of :class:`DeltaEncoder`; registers must stay in lockstep."""

    __slots__ = ("_bits", "_delta")

    def __init__(self) -> None:
        self._bits = 0
        self._delta = 0

    def decode(self, data: bytes, pos: int) -> Tuple[float, int]:
        """Read one framed float at ``pos``; returns ``(value, new_pos)``."""
        z, pos = decode_uvarint(data, pos)
        delta = self._delta + unzigzag(z)
        bits = self._bits + delta
        try:
            value = bits_to_float(bits)
        except struct.error:
            # Only a corrupt stream leaves the signed 64-bit range.
            raise DecodeError(
                f"corrupt timestamp: bit pattern {bits} is not int64"
            ) from None
        self._bits = bits
        self._delta = delta
        return value, pos
