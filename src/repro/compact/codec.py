"""The compact binary trace codec: VGVZ streaming writer/reader.

This is the on-disk half of the compaction layer.  A VGVZ stream is::

    b"VGVZ" <version byte>
    <string app_name> <uvarint record_bytes>          # header
    ops:
      0x02 FUNC   <uvarint fid> <string name>
      0x01 BUF    <uvarint process> <uvarint thread>  # opens a buffer
      0x10 ENTER  <uvarint fid> <ts>
      0x11 LEAVE  <uvarint fid> <ts>
      0x12 BATCH  <uvarint fid> <uvarint n> <ts> <ts> <ts>
      0x13 MSG    <kind byte> <zz peer> <zz tag> <uvarint size> <ts>
      0x14 COLL   <string op> <uvarint comm_size> <ts> <ts>
      0x15 MARKER <string name> <ts> <ts>
      0x20 LOOP   <uvarint w> <uvarint n> <w structural descriptors>
                  <n * sum(floats per descriptor) ts, iteration-major>
      0x00 END    <uvarint record objects> <uvarint raw records>

``<ts>`` is one timestamp framed by the per-buffer second-order
bit-pattern delta encoder (:mod:`repro.compact.varint`); ``<string>``
is interned per file (id reference after first use); ``zz`` is a
zigzag varint.  A LOOP op is a :class:`~repro.compact.suppress.Fold`:
the body's structure appears once, then only timestamps repeat — a hot
loop costs a handful of bytes per iteration after warm-up, and nothing
is approximated: ``decompress(compress(stream))`` reproduces the
record stream exactly, record for record, bit for bit.

The writer is streaming (bounded memory: the suppressor's window) and
so is the reader (:meth:`CompactReader.iter_records` decodes record by
record).  The END trailer carries object and raw-record counts so
truncation or corruption is detected rather than silently tolerated.
"""

from __future__ import annotations

import io
from typing import Any, BinaryIO, Dict, Iterator, List, Optional, Tuple, Union

from ..vt.buffer import ThreadTraceBuffer, TraceFile
from ..vt.records import (
    BatchPairRecord,
    CollectiveRecord,
    EnterRecord,
    LeaveRecord,
    MarkerRecord,
    MsgRecord,
    TraceRecord,
)
from .suppress import DEFAULT_MAX_WINDOW, Fold, RepeatSuppressor
from .varint import (
    DeltaDecoder,
    DeltaEncoder,
    decode_uvarint,
    encode_uvarint,
    unzigzag,
    zigzag,
)

__all__ = [
    "CompactionStats",
    "CompactWriter",
    "CompactReader",
    "compress_trace",
    "decompress_trace",
    "compress_trace_bytes",
    "measure_compact_bytes",
    "expand_batch_pairs",
    "record_key",
    "MAGIC",
    "VERSION",
]

MAGIC = b"VGVZ"
VERSION = 1

_OP_END = 0x00
_OP_BUF = 0x01
_OP_FUNC = 0x02
_OP_ENTER = 0x10
_OP_LEAVE = 0x11
_OP_BATCH = 0x12
_OP_MSG = 0x13
_OP_COLL = 0x14
_OP_MARKER = 0x15
_OP_LOOP = 0x20


def record_key(rec: TraceRecord) -> Tuple[Any, ...]:
    """The structural identity of a record — everything but its floats.

    Two records fold together exactly when their keys are equal; the
    keys double as the codec's structural descriptors, so suppression
    and encoding agree by construction.
    """
    cls = rec.__class__
    if cls is EnterRecord:
        return (_OP_ENTER, rec.fid)
    if cls is LeaveRecord:
        return (_OP_LEAVE, rec.fid)
    if cls is BatchPairRecord:
        return (_OP_BATCH, rec.fid, rec.n)
    if cls is MsgRecord:
        return (_OP_MSG, rec.kind, rec.peer, rec.tag, rec.size)
    if cls is CollectiveRecord:
        return (_OP_COLL, rec.op, rec.comm_size)
    if cls is MarkerRecord:
        return (_OP_MARKER, rec.name)
    raise TypeError(f"unknown record type {cls.__name__}")


def _record_floats(rec: TraceRecord) -> List[float]:
    """The per-occurrence payload matching :func:`record_key`."""
    cls = rec.__class__
    if cls is EnterRecord or cls is LeaveRecord or cls is MsgRecord:
        return [rec.t]
    if cls is BatchPairRecord:
        return [rec.t_first, rec.period, rec.duration]
    if cls is CollectiveRecord:
        return [rec.t_start, rec.t_end]
    if cls is MarkerRecord:
        return [rec.t_start, rec.t_end]
    raise TypeError(f"unknown record type {cls.__name__}")


def expand_batch_pairs(records: List[TraceRecord]) -> Iterator[TraceRecord]:
    """Expand every :class:`BatchPairRecord` into its 2n constituents.

    Pair ``k`` entered at ``t_first + k * period`` and left ``duration``
    later — the unbatched enter/leave stream the batch record stands
    for.  Non-batch records pass through unchanged.
    """
    for rec in records:
        if rec.__class__ is BatchPairRecord:
            for k in range(rec.n):
                t = rec.t_first + k * rec.period
                yield EnterRecord(rec.fid, t)
                yield LeaveRecord(rec.fid, t + rec.duration)
        else:
            yield rec


class CompactionStats:
    """Accounting of one compression pass."""

    __slots__ = ("record_objects", "raw_records", "compact_bytes",
                 "record_bytes", "folds", "folded_objects")

    def __init__(self, record_bytes: int = 24) -> None:
        #: In-memory record objects written (a batch pair counts once).
        self.record_objects = 0
        #: Raw on-disk records they stand for (a batch pair counts 2n).
        self.raw_records = 0
        #: Bytes of VGVZ output produced.
        self.compact_bytes = 0
        #: Bytes one raw record costs in the analytic volume model.
        self.record_bytes = record_bytes
        #: Folds emitted / record objects absorbed into them.
        self.folds = 0
        self.folded_objects = 0

    @property
    def model_bytes(self) -> int:
        """The analytic volume model's size: ``raw_records x record_bytes``."""
        return self.raw_records * self.record_bytes

    @property
    def ratio(self) -> float:
        """Compression ratio against the analytic volume model."""
        return self.model_bytes / self.compact_bytes if self.compact_bytes else 0.0

    @property
    def bytes_per_record(self) -> float:
        """Compact bytes per raw record (the model charges record_bytes)."""
        return self.compact_bytes / self.raw_records if self.raw_records else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (the ``trace compact --json`` payload)."""
        return {
            "record_objects": self.record_objects,
            "raw_records": self.raw_records,
            "model_bytes": self.model_bytes,
            "compact_bytes": self.compact_bytes,
            "bytes_per_record": round(self.bytes_per_record, 3),
            "ratio": round(self.ratio, 2),
            "folds": self.folds,
            "folded_objects": self.folded_objects,
        }

    def __repr__(self) -> str:
        return (
            f"<CompactionStats {self.raw_records} raw -> "
            f"{self.compact_bytes} B (x{self.ratio:.1f})>"
        )


class _StringTable:
    """Per-file string interning (encode side)."""

    __slots__ = ("_ids",)

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}

    def encode(self, s: str, out: bytearray) -> None:
        sid = self._ids.get(s)
        if sid is not None:
            encode_uvarint(sid + 1, out)
            return
        encode_uvarint(0, out)
        data = s.encode("utf-8")
        encode_uvarint(len(data), out)
        out += data
        self._ids[s] = len(self._ids)


class CompactWriter:
    """Streaming VGVZ encoder.

    Feed records buffer by buffer (:meth:`begin_buffer` /
    :meth:`write` / :meth:`end_buffer`) and :meth:`close` when done;
    output bytes reach ``fh`` incrementally, with at most the
    suppressor's window of records held back.  ``strict_time=True``
    rejects a record whose ``.time`` precedes its predecessor's within
    a buffer (postmortem VT buffers append finalisation markers out of
    order, so the default is tolerant).
    """

    def __init__(
        self,
        fh: BinaryIO,
        app_name: str = "",
        record_bytes: int = 24,
        max_window: int = DEFAULT_MAX_WINDOW,
        suppress: bool = True,
        strict_time: bool = False,
    ) -> None:
        self._fh = fh
        self._strings = _StringTable()
        self._suppress = suppress
        self._max_window = max_window
        self._strict_time = strict_time
        self._suppressor: Optional[RepeatSuppressor] = None
        self._deltas: Optional[DeltaEncoder] = None
        self._last_time = float("-inf")
        self._in_buffer = False
        self._closed = False
        self.stats = CompactionStats(record_bytes)
        out = bytearray(MAGIC)
        out.append(VERSION)
        self._strings.encode(app_name, out)
        encode_uvarint(record_bytes, out)
        self._emit(out)

    # -- plumbing -----------------------------------------------------------------

    def _emit(self, data: bytearray) -> None:
        self.stats.compact_bytes += len(data)
        self._fh.write(bytes(data))

    # -- the writing interface ----------------------------------------------------

    def write_function(self, fid: int, name: str) -> None:
        """Register one function-table entry (fid -> name)."""
        out = bytearray((_OP_FUNC,))
        encode_uvarint(fid, out)
        self._strings.encode(name, out)
        self._emit(out)

    def begin_buffer(self, process: int, thread: int) -> None:
        """Open the (process, thread) buffer; records follow."""
        if self._in_buffer:
            raise ValueError("begin_buffer inside an open buffer")
        self._in_buffer = True
        self._deltas = DeltaEncoder()
        self._last_time = float("-inf")
        if self._suppress:
            self._suppressor = RepeatSuppressor(
                record_key, time=lambda r: r.time, max_window=self._max_window,
            )
        out = bytearray((_OP_BUF,))
        encode_uvarint(process, out)
        encode_uvarint(thread, out)
        self._emit(out)

    def write(self, rec: TraceRecord) -> None:
        """Append one record to the open buffer."""
        if not self._in_buffer:
            raise ValueError("write outside a buffer; call begin_buffer first")
        t = rec.time
        if self._strict_time and t < self._last_time:
            raise ValueError(
                f"out-of-order timestamp: {t!r} after {self._last_time!r} "
                f"in {rec!r}"
            )
        if t > self._last_time:
            self._last_time = t
        self.stats.record_objects += 1
        self.stats.raw_records += rec.record_count()
        if self._suppressor is not None:
            for element in self._suppressor.push(rec):
                self._encode_element(element)
        else:
            self._encode_element(rec)

    def end_buffer(self) -> None:
        """Close the open buffer (flushes the suppressor's tail)."""
        if not self._in_buffer:
            raise ValueError("end_buffer without an open buffer")
        if self._suppressor is not None:
            for element in self._suppressor.flush():
                self._encode_element(element)
            self.stats.folds += self._suppressor.folds
            self.stats.folded_objects += self._suppressor.folded_items
            self._suppressor = None
        self._in_buffer = False
        self._deltas = None

    def close(self) -> CompactionStats:
        """Write the END trailer; returns the accumulated stats."""
        if self._in_buffer:
            self.end_buffer()
        if not self._closed:
            out = bytearray((_OP_END,))
            encode_uvarint(self.stats.record_objects, out)
            encode_uvarint(self.stats.raw_records, out)
            self._emit(out)
            self._closed = True
        return self.stats

    # -- encoding -----------------------------------------------------------------

    def _encode_element(self, element: Union[TraceRecord, Fold]) -> None:
        out = bytearray()
        if isinstance(element, Fold):
            out.append(_OP_LOOP)
            encode_uvarint(element.width, out)
            encode_uvarint(element.n, out)
            for rec in element.iterations[0]:
                self._encode_structure(rec, out)
            deltas = self._deltas
            for iteration in element.iterations:
                for rec in iteration:
                    deltas.encode_many(_record_floats(rec), out)
        else:
            self._encode_structure(element, out)
            self._deltas.encode_many(_record_floats(element), out)
        self._emit(out)

    def _encode_structure(self, rec: TraceRecord, out: bytearray) -> None:
        cls = rec.__class__
        if cls is EnterRecord or cls is LeaveRecord:
            out.append(_OP_ENTER if cls is EnterRecord else _OP_LEAVE)
            encode_uvarint(rec.fid, out)
        elif cls is BatchPairRecord:
            out.append(_OP_BATCH)
            encode_uvarint(rec.fid, out)
            encode_uvarint(rec.n, out)
        elif cls is MsgRecord:
            out.append(_OP_MSG)
            out.append(0 if rec.kind == "send" else 1)
            encode_uvarint(zigzag(rec.peer), out)
            encode_uvarint(zigzag(rec.tag), out)
            encode_uvarint(rec.size, out)
        elif cls is CollectiveRecord:
            out.append(_OP_COLL)
            self._strings.encode(rec.op, out)
            encode_uvarint(rec.comm_size, out)
        elif cls is MarkerRecord:
            out.append(_OP_MARKER)
            self._strings.encode(rec.name, out)
        else:
            raise TypeError(f"unknown record type {cls.__name__}")


class CompactReader:
    """Streaming VGVZ decoder.

    ``iter_records()`` yields ``(process, thread, record)`` lazily, in
    stream order, expanding LOOP groups back into their constituent
    records; :meth:`read_trace` materialises a full
    :class:`~repro.vt.buffer.TraceFile`.
    """

    def __init__(self, data: bytes) -> None:
        if len(data) < 5 or data[:4] != MAGIC:
            raise ValueError("not a VGVZ stream")
        if data[4] != VERSION:
            raise ValueError(f"unsupported VGVZ version {data[4]}")
        self._data = data
        self._strings: List[str] = []
        pos = 5
        self.app_name, pos = self._decode_string(pos)
        self.record_bytes, pos = decode_uvarint(data, pos)
        self._body_start = pos
        self.functions: Dict[int, str] = {}

    @classmethod
    def from_file(cls, path: str) -> "CompactReader":
        """Open a VGVZ file on disk."""
        with open(path, "rb") as fh:
            return cls(fh.read())

    # -- decoding primitives ------------------------------------------------------

    def _decode_string(self, pos: int) -> Tuple[str, int]:
        sid, pos = decode_uvarint(self._data, pos)
        if sid:
            try:
                return self._strings[sid - 1], pos
            except IndexError:
                raise ValueError(f"bad string reference {sid}") from None
        length, pos = decode_uvarint(self._data, pos)
        if len(self._data) < pos + length:
            raise ValueError("truncated string")
        s = self._data[pos:pos + length].decode("utf-8")
        self._strings.append(s)
        return s, pos + length

    def _decode_structure(self, pos: int) -> Tuple[Tuple[Any, ...], int]:
        """One structural descriptor -> (key tuple, new position)."""
        data = self._data
        op = data[pos]
        pos += 1
        if op in (_OP_ENTER, _OP_LEAVE):
            fid, pos = decode_uvarint(data, pos)
            return (op, fid), pos
        if op == _OP_BATCH:
            fid, pos = decode_uvarint(data, pos)
            n, pos = decode_uvarint(data, pos)
            return (op, fid, n), pos
        if op == _OP_MSG:
            kind = "send" if data[pos] == 0 else "recv"
            pos += 1
            peer, pos = decode_uvarint(data, pos)
            tag, pos = decode_uvarint(data, pos)
            size, pos = decode_uvarint(data, pos)
            return (op, kind, unzigzag(peer), unzigzag(tag), size), pos
        if op == _OP_COLL:
            name, pos = self._decode_string(pos)
            comm_size, pos = decode_uvarint(data, pos)
            return (op, name, comm_size), pos
        if op == _OP_MARKER:
            name, pos = self._decode_string(pos)
            return (op, name), pos
        raise ValueError(f"unknown record opcode {op:#x}")

    @staticmethod
    def _build(key: Tuple[Any, ...], floats: List[float]) -> TraceRecord:
        op = key[0]
        if op == _OP_ENTER:
            return EnterRecord(key[1], floats[0])
        if op == _OP_LEAVE:
            return LeaveRecord(key[1], floats[0])
        if op == _OP_BATCH:
            return BatchPairRecord(key[1], key[2], floats[0], floats[1], floats[2])
        if op == _OP_MSG:
            return MsgRecord(key[1], key[2], key[3], key[4], floats[0])
        if op == _OP_COLL:
            return CollectiveRecord(key[1], key[2], floats[0], floats[1])
        if op == _OP_MARKER:
            return MarkerRecord(key[1], floats[0], floats[1])
        raise ValueError(f"unknown record opcode {op:#x}")

    _N_FLOATS = {_OP_ENTER: 1, _OP_LEAVE: 1, _OP_BATCH: 3,
                 _OP_MSG: 1, _OP_COLL: 2, _OP_MARKER: 2}

    # -- the reading interface ----------------------------------------------------

    def iter_records(self) -> Iterator[Tuple[int, int, TraceRecord]]:
        """Yield ``(process, thread, record)`` in stream order."""
        data = self._data
        pos = self._body_start
        process = thread = -1
        deltas: Optional[DeltaDecoder] = None
        objects = 0
        raw = 0
        while True:
            try:
                op = data[pos]
            except IndexError:
                raise ValueError("truncated VGVZ stream (no END trailer)") from None
            pos += 1
            if op == _OP_END:
                want_objects, pos = decode_uvarint(data, pos)
                want_raw, pos = decode_uvarint(data, pos)
                if want_objects != objects or want_raw != raw:
                    raise ValueError(
                        f"VGVZ trailer mismatch: decoded {objects} objects / "
                        f"{raw} raw records, trailer says {want_objects} / "
                        f"{want_raw}"
                    )
                return
            if op == _OP_FUNC:
                fid, pos = decode_uvarint(data, pos)
                name, pos = self._decode_string(pos)
                self.functions[fid] = name
                continue
            if op == _OP_BUF:
                process, pos = decode_uvarint(data, pos)
                thread, pos = decode_uvarint(data, pos)
                deltas = DeltaDecoder()
                continue
            if deltas is None:
                raise ValueError("record opcode before any buffer header")
            if op == _OP_LOOP:
                width, pos = decode_uvarint(data, pos)
                if width == 0:
                    # A Fold has at least one record; an empty body
                    # would spin n times without consuming a byte.
                    raise ValueError("corrupt VGVZ LOOP: zero-width body")
                n, pos = decode_uvarint(data, pos)
                keys = []
                for _ in range(width):
                    key, pos = self._decode_structure(pos)
                    keys.append(key)
                for _ in range(n):
                    for key in keys:
                        floats = []
                        for _ in range(self._N_FLOATS[key[0]]):
                            value, pos = deltas.decode(data, pos)
                            floats.append(value)
                        rec = self._build(key, floats)
                        objects += 1
                        raw += rec.record_count()
                        yield process, thread, rec
                continue
            key, pos = self._decode_structure(pos - 1)
            floats = []
            for _ in range(self._N_FLOATS[key[0]]):
                value, pos = deltas.decode(data, pos)
                floats.append(value)
            rec = self._build(key, floats)
            objects += 1
            raw += rec.record_count()
            yield process, thread, rec

    def read_trace(self) -> TraceFile:
        """Materialise the whole stream as a :class:`TraceFile`."""
        trace = TraceFile(self.app_name, record_bytes=self.record_bytes)
        buffers: Dict[Tuple[int, int], ThreadTraceBuffer] = {}
        for process, thread, rec in self.iter_records():
            key = (process, thread)
            buf = buffers.get(key)
            if buf is None:
                buf = ThreadTraceBuffer(process, thread)
                buffers[key] = buf
                trace.add_buffer(buf)
            buf.records.append(rec)
            buf._raw_count += rec.record_count()
        for fid, name in self.functions.items():
            trace.register_function(fid, name)
        return trace


# -- one-call helpers ----------------------------------------------------------------


def compress_trace(
    trace: TraceFile,
    fh: BinaryIO,
    max_window: int = DEFAULT_MAX_WINDOW,
    suppress: bool = True,
    strict_time: bool = False,
) -> CompactionStats:
    """Encode a whole :class:`TraceFile` into ``fh``; returns stats."""
    writer = CompactWriter(
        fh, app_name=trace.app_name, record_bytes=trace.record_bytes,
        max_window=max_window, suppress=suppress, strict_time=strict_time,
    )
    for fid, name in sorted(trace.func_names.items()):
        writer.write_function(fid, name)
    for (process, thread), buf in sorted(trace.buffers.items()):
        writer.begin_buffer(process, thread)
        for rec in buf.records:
            writer.write(rec)
        writer.end_buffer()
    return writer.close()


def compress_trace_bytes(
    trace: TraceFile, **kwargs: Any
) -> Tuple[bytes, CompactionStats]:
    """In-memory :func:`compress_trace`; returns ``(bytes, stats)``."""
    fh = io.BytesIO()
    stats = compress_trace(trace, fh, **kwargs)
    return fh.getvalue(), stats


def decompress_trace(source: Union[bytes, BinaryIO]) -> TraceFile:
    """Decode a VGVZ stream (bytes or binary file) into a TraceFile."""
    data = source if isinstance(source, bytes) else source.read()
    return CompactReader(data).read_trace()


def measure_compact_bytes(records: List[TraceRecord],
                          max_window: int = DEFAULT_MAX_WINDOW) -> int:
    """Compact size of one record list (no header/table overhead).

    This is the per-buffer accounting hook
    :attr:`~repro.vt.buffer.ThreadTraceBuffer.compact_bytes` uses: the
    bytes the buffer's records cost inside a VGVZ stream, excluding the
    file header and function table so per-rank numbers add up.
    """
    fh = io.BytesIO()
    writer = CompactWriter(fh, max_window=max_window)
    header = writer.stats.compact_bytes
    writer.begin_buffer(0, 0)
    for rec in records:
        writer.write(rec)
    stats = writer.close()
    return stats.compact_bytes - header
