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

The encoder works a column at a time over int64 numpy arrays (time bit
patterns, delta-of-delta, zigzag, LEB128 lengths, then one scatter of
every field into the output); a short log, or one whose values or time
deltas leave int64, is written by the per-decision
:mod:`repro.compact.varint` primitives, which define the format.  Both
write the same bytes.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional

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

#: Below this many decisions the scalar encoder is faster: the bulk one
#: pays about 0.3 ms of numpy calls per log whatever its length.  On
#: fig7b's order logs the two cross between 149 decisions (scalar 0.29
#: ms, bulk 0.38 ms) and 240 (0.57 ms, 0.41 ms); on synthetic logs of
#: 150-250 decisions they cross near 160-190, within 0.05 ms of each
#: other there.  200 is a value picked in that range, not a measured
#: point: any value from 150 to 240 splits fig7b's logs the same way.
BULK_MIN_DECISIONS = 200


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

    The decisions are held as four parallel columns (:attr:`channels`,
    :attr:`keys`, :attr:`values`, :attr:`times`): a recorder appends
    plain values, and :meth:`to_bytes` encodes each column in bulk.
    :attr:`decisions` is the row view, built on demand.
    """

    __slots__ = ("meta", "channels", "keys", "values", "times")

    def __init__(
        self,
        meta: Optional[Dict[str, Any]] = None,
        decisions: Iterable[Decision] = (),
    ) -> None:
        self.meta: Dict[str, Any] = meta if meta is not None else {}
        self.channels: List[int] = []
        self.keys: List[str] = []
        self.values: List[int] = []
        self.times: List[float] = []
        for d in decisions:
            self.append(*d)

    @property
    def decisions(self) -> List[Decision]:
        """The decisions as rows (a fresh list)."""
        return list(map(Decision, self.channels, self.keys, self.values,
                        self.times))

    def decision(self, index: int) -> Decision:
        """Decision ``index`` as one row."""
        return Decision(self.channels[index], self.keys[index],
                        self.values[index], self.times[index])

    def __len__(self) -> int:
        return len(self.channels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderLog):
            return NotImplemented
        return (self.meta == other.meta and self.channels == other.channels
                and self.keys == other.keys and self.values == other.values
                and self.times == other.times)

    def __repr__(self) -> str:
        return f"<OrderLog {len(self)} decision(s)>"

    def append(self, channel: int, key: str, value: int, time: float) -> None:
        self.channels.append(channel)
        self.keys.append(key)
        self.values.append(value)
        self.times.append(time)

    def counts(self) -> Dict[str, int]:
        """Decision counts per channel name (stable key order)."""
        return {name: self.channels.count(ch)
                for ch, name in enumerate(CHANNEL_NAMES)}

    # -- serialisation --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The sealed RRLG v2 bytes, the columns encoded in bulk unless
        the log is short."""
        if len(self.channels) < BULK_MIN_DECISIONS:
            return _encode(self, _scalar_body)
        try:
            return _encode(self, _bulk_body)
        except OverflowError:
            # A value or a time delta outside int64: the scalar
            # primitives work on Python integers of any width.
            return _encode(self, _scalar_body)

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
        log = cls(meta=meta)
        times = DeltaDecoder()
        while not r.end():
            channel = r.byte()
            if channel >= len(CHANNEL_NAMES):
                raise DecodeError(f"unknown order-log channel {channel}")
            log.append(channel, r.string(), r.svarint(), r.float(times))
        return log

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


# -- encoders --------------------------------------------------------------------

_Body = Callable[[OrderLog, str, Writer], None]


def _encode(log: OrderLog, body: _Body) -> bytes:
    """``log`` sealed as RRLG v2, its decisions written by ``body``."""
    meta = json.dumps(log.meta, sort_keys=True, separators=(",", ":"))
    w = Writer(_MAGIC, FORMAT_VERSION)
    w.string(meta)
    body(log, meta, w)
    return w.seal()


def _scalar_body(log: OrderLog, meta: str, w: Writer) -> None:
    """The reference encoder: one decision, one field at a time."""
    out = w.out
    times = DeltaEncoder()
    for channel, key, value, time in zip(log.channels, log.keys, log.values,
                                         log.times):
        out.append(channel)
        w.string(key)
        encode_uvarint(zigzag(value), out)
        times.encode(time, out)


def _bulk_body(log: OrderLog, meta: str, w: Writer) -> None:
    """The same bytes as :func:`_scalar_body`, column by column.

    Raises ``OverflowError``, leaving ``w`` untouched, when a value or
    a time delta does not fit int64.
    """
    n = len(log.channels)
    if not n:
        return
    import numpy as np

    channels = np.frombuffer(bytes(log.channels), dtype=np.uint8)
    values = np.array(log.values, dtype=np.int64)
    bits = np.array(log.times, dtype=np.float64).view(np.int64)
    delta = np.diff(bits, prepend=0)
    dod = np.diff(delta, prepend=0)
    if (_wrapped(bits, delta) | _wrapped(delta, dod)).any():
        raise OverflowError("order-log time delta outside int64")

    # Interned keys: the meta string is id 0, each new key the next id
    # in order of first use.  A key's first use writes the literal
    # ``0 <len> <utf-8>``, every later use the reference ``<id + 1>``.
    ids = {meta: 0}
    for key in dict.fromkeys(log.keys):
        ids.setdefault(key, len(ids))
    refs = np.fromiter(map(ids.__getitem__, log.keys), dtype=np.int64, count=n)
    first = refs > np.maximum.accumulate(np.concatenate(([0], refs[:-1])))
    data = [key.encode("utf-8") for key in list(ids)[1:]]
    data_len = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    len_z = data_len.view(np.uint64)
    len_len = _uvarint_lengths(np, len_z)
    ref_z = (refs + 1).view(np.uint64)
    key_len = _uvarint_lengths(np, ref_z)
    key_len[first] = 1 + len_len + data_len

    value_z = _zigzag(np, values)
    value_len = _uvarint_lengths(np, value_z)
    time_z = _zigzag(np, dod)
    time_len = _uvarint_lengths(np, time_z)

    row_len = 1 + key_len + value_len + time_len
    key_pos = np.cumsum(row_len) - row_len + 1
    value_pos = key_pos + key_len
    time_pos = value_pos + value_len
    out = np.empty(int(row_len.sum()), dtype=np.uint8)
    out[key_pos - 1] = channels
    ref = ~first
    _put_uvarints(np, out, key_pos[ref], ref_z[ref], key_len[ref])
    literal_pos = key_pos[first]
    out[literal_pos] = 0
    _put_uvarints(np, out, literal_pos + 1, len_z, len_len)
    blob = np.frombuffer(b"".join(data), dtype=np.uint8)
    data_start = np.cumsum(data_len) - data_len
    out[np.repeat(literal_pos + 1 + len_len - data_start, data_len)
        + np.arange(blob.size)] = blob
    _put_uvarints(np, out, value_pos, value_z, value_len)
    _put_uvarints(np, out, time_pos, time_z, time_len)
    w.out += out.tobytes()


def _wrapped(a: Any, diff: Any) -> Any:
    """Where ``diff = a - b`` wrapped around int64 (``b = a - diff``)."""
    return ((a ^ (a - diff)) & (a ^ diff)) < 0


def _zigzag(np: Any, v: Any) -> Any:
    """:func:`~repro.compact.varint.zigzag` over an int64 array."""
    return ((v << 1) ^ (v >> 63)).view(np.uint64)


def _uvarint_lengths(np: Any, z: Any) -> Any:
    """The LEB128 byte count (1-10) of each uint64 in ``z``."""
    lengths = np.ones(z.shape, dtype=np.int64)
    for shift in range(7, 64, 7):
        longer = z >= np.uint64(1 << shift)
        if not longer.any():
            break
        lengths += longer
    return lengths


def _put_uvarints(np: Any, out: Any, pos: Any, z: Any, lengths: Any) -> None:
    """Write each ``z[i]`` as an LEB128 varint of ``lengths[i]`` bytes
    at ``out[pos[i]:]``, one 7-bit group of every value per pass."""
    while z.size:
        more = lengths > 1
        out[pos] = (z & 0x7F).astype(np.uint8) | (more.astype(np.uint8) << 7)
        pos, z, lengths = pos[more] + 1, z[more] >> np.uint64(7), lengths[more] - 1
