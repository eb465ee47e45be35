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

Serialisation (``RRLG`` format, version 2) is one sealed
:mod:`repro.compact.container` stream: ``b"RRLG" 0x02``, the meta
object's canonical JSON as a string, then per decision ``<channel
byte> <string key> <zigzag value> <ts>`` up to the CRC-32 seal.  A
truncated or damaged log raises
:class:`~repro.compact.container.DecodeError`, never decodes into a
different run's decisions.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, NamedTuple, Optional

from ..compact.container import DecodeError, Reader, Writer, from_ascii, to_ascii
from ..compact.varint import DeltaDecoder, DeltaEncoder, encode_uvarint, zigzag

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

FORMAT_VERSION = 2

_MAGIC = b"RRLG"

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
        w = Writer(_MAGIC, FORMAT_VERSION)
        w.string(json.dumps(self.meta, sort_keys=True, separators=(",", ":")))
        out = w.out
        times = DeltaEncoder()
        for d in self.decisions:
            out.append(d.channel)
            w.string(d.key)
            encode_uvarint(zigzag(d.value), out)
            times.encode(d.time, out)
        return w.seal()

    @classmethod
    def from_bytes(cls, data: bytes) -> "OrderLog":
        r = Reader(data, _MAGIC, FORMAT_VERSION, "RRLG order log")
        blob = r.string()
        try:
            meta = json.loads(blob)
        except (ValueError, RecursionError) as exc:
            raise DecodeError(f"order-log meta is not JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise DecodeError("order-log meta is not a JSON object")
        times = DeltaDecoder()
        decisions: List[Decision] = []
        while not r.end():
            channel = r.byte()
            if channel >= len(CHANNEL_NAMES):
                raise DecodeError(f"unknown order-log channel {channel}")
            decisions.append(
                Decision(channel, r.string(), r.svarint(), r.float(times)))
        return cls(meta=meta, decisions=decisions)

    def to_b64(self) -> str:
        """ASCII form for riding JSON worker envelopes and wire frames."""
        return to_ascii(self.to_bytes())

    @classmethod
    def from_b64(cls, text: str) -> "OrderLog":
        return cls.from_bytes(from_ascii(text))

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "OrderLog":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
