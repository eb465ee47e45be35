"""The compact order log — what a recorded run's nondeterminism looks like.

Following the distributed order-recording literature, the log stores
only the *order decisions* of a run, never payloads: which event the
engine drained at each step, how each arriving message matched (a
posted receive, or the unexpected queue), which unexpected envelope a
posted receive claimed, and every fault-injector draw.  Re-running the
(deterministic) simulation under the same inputs must reproduce the
same decision sequence; the replay controller verifies exactly that
and reports the first decision where it no longer holds.

Each decision is a 4-tuple:

``channel``
    One of :data:`CH_EVENT` (engine drained one event),
    :data:`CH_DELIVER` (an envelope arrived and matched), :data:`CH_MATCH`
    (a posted receive matched from the unexpected queue) or
    :data:`CH_FAULT` (the fault injector drew from a named stream).
``key``
    The decision's identity: the event's process name or type, the
    message flow ``"src>dst:tag:context"``, or the fault stream name.
``value``
    Channel-specific integer: scheduling priority, the matched queue
    position (-1 = filed as unexpected), or the IEEE-754 bit pattern of
    the drawn float.
``time``
    Simulated time of the decision.

Serialisation (``RRLG`` format, version 1) uses the
:mod:`repro.compact.varint` primitives — string-interned keys, LEB128
varints, zigzag for the signed values and the second-order bit-pattern
delta codec for timestamps — plus a counted trailer so a truncated
file is detected rather than silently shortened.
"""

from __future__ import annotations

import base64
import json
from typing import Any, Dict, List, NamedTuple, Optional

from ..compact.varint import (
    DeltaDecoder,
    DeltaEncoder,
    decode_uvarint,
    encode_uvarint,
    unzigzag,
    zigzag,
)

__all__ = [
    "CH_EVENT",
    "CH_DELIVER",
    "CH_MATCH",
    "CH_FAULT",
    "CHANNEL_NAMES",
    "Decision",
    "OrderLog",
    "FORMAT_VERSION",
]

CH_EVENT = 0
CH_DELIVER = 1
CH_MATCH = 2
CH_FAULT = 3

CHANNEL_NAMES = ("event", "deliver", "match", "fault")

FORMAT_VERSION = 1

_MAGIC = b"RRLG"
_TRAILER = b"GLRR"

class Decision(NamedTuple):
    """One recorded nondeterminism decision."""

    channel: int
    key: str
    value: int
    time: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "channel": self.channel,
            "channel_name": CHANNEL_NAMES[self.channel]
            if 0 <= self.channel < len(CHANNEL_NAMES) else str(self.channel),
            "key": self.key,
            "value": self.value,
            "time": self.time,
        }


class OrderLog:
    """A run's decision sequence plus identifying metadata.

    ``meta`` carries whatever the recorder needs to make the log
    self-contained — conventionally the point's canonical JSON under
    ``"point"`` — and must be JSON-safe and deterministic (no wall
    clocks), so recording the same run twice yields byte-identical
    logs.
    """

    __slots__ = ("meta", "decisions")

    def __init__(
        self,
        meta: Optional[Dict[str, Any]] = None,
        decisions: Optional[List[Decision]] = None,
    ) -> None:
        self.meta: Dict[str, Any] = meta if meta is not None else {}
        self.decisions: List[Decision] = decisions if decisions is not None else []

    def __len__(self) -> int:
        return len(self.decisions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderLog):
            return NotImplemented
        return self.meta == other.meta and self.decisions == other.decisions

    def __repr__(self) -> str:
        return f"<OrderLog {len(self.decisions)} decision(s)>"

    def append(self, channel: int, key: str, value: int, time: float) -> None:
        self.decisions.append(Decision(channel, key, value, time))

    def counts(self) -> Dict[str, int]:
        """Decision counts per channel name (stable key order)."""
        out = {name: 0 for name in CHANNEL_NAMES}
        for d in self.decisions:
            out[CHANNEL_NAMES[d.channel]] += 1
        return out

    # -- serialisation --------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += _MAGIC
        encode_uvarint(FORMAT_VERSION, out)
        meta_blob = json.dumps(
            self.meta, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        encode_uvarint(len(meta_blob), out)
        out += meta_blob
        # String table, first-appearance order.
        table: Dict[str, int] = {}
        for d in self.decisions:
            if d.key not in table:
                table[d.key] = len(table)
        encode_uvarint(len(table), out)
        for key in table:
            blob = key.encode("utf-8")
            encode_uvarint(len(blob), out)
            out += blob
        encode_uvarint(len(self.decisions), out)
        times = DeltaEncoder()
        for d in self.decisions:
            encode_uvarint(d.channel, out)
            encode_uvarint(table[d.key], out)
            encode_uvarint(zigzag(d.value), out)
            times.encode(d.time, out)
        # Counted trailer: a truncated log fails loudly, not shortly.
        encode_uvarint(len(self.decisions), out)
        out += _TRAILER
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "OrderLog":
        if data[:4] != _MAGIC:
            raise ValueError("not an RRLG order log (bad magic)")
        pos = 4
        try:
            version, pos = decode_uvarint(data, pos)
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported order-log version {version}")
            meta_len, pos = decode_uvarint(data, pos)
            meta = json.loads(data[pos:pos + meta_len].decode("utf-8"))
            pos += meta_len
            n_keys, pos = decode_uvarint(data, pos)
            table: List[str] = []
            for _ in range(n_keys):
                blob_len, pos = decode_uvarint(data, pos)
                table.append(data[pos:pos + blob_len].decode("utf-8"))
                pos += blob_len
            n, pos = decode_uvarint(data, pos)
            times = DeltaDecoder()
            decisions: List[Decision] = []
            for _ in range(n):
                channel, pos = decode_uvarint(data, pos)
                key_idx, pos = decode_uvarint(data, pos)
                z, pos = decode_uvarint(data, pos)
                t, pos = times.decode(data, pos)
                decisions.append(
                    Decision(channel, table[key_idx], unzigzag(z), t)
                )
            trailer_n, pos = decode_uvarint(data, pos)
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ValueError) and "order-log" in str(exc):
                raise
            raise ValueError(f"truncated or corrupt order log: {exc}") from None
        if trailer_n != n or data[pos:pos + 4] != _TRAILER:
            raise ValueError(
                "truncated or corrupt order log (trailer mismatch)"
            )
        return cls(meta=meta, decisions=decisions)

    def to_b64(self) -> str:
        """ASCII form for riding JSON worker envelopes and wire frames."""
        return base64.b64encode(self.to_bytes()).decode("ascii")

    @classmethod
    def from_b64(cls, text: str) -> "OrderLog":
        return cls.from_bytes(base64.b64decode(text.encode("ascii")))

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "OrderLog":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
