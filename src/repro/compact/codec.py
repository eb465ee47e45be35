"""The compact binary trace codec: VGVZ streaming writer/reader.

This is the on-disk half of the compaction layer.  A VGVZ stream is
one sealed :mod:`repro.compact.container` stream::

    b"VGVZ" 0x02 <string app_name> <uvarint record_bytes>
    ops, up to the 4-byte CRC-32 seal:
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
record).  The seal turns truncation or any damaged byte into a
:class:`~repro.compact.container.DecodeError` before a field is read.
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
from .container import DecodeError, Reader, Writer
from .suppress import DEFAULT_MAX_WINDOW, Fold, RepeatSuppressor
from .varint import DeltaDecoder, DeltaEncoder, encode_uvarint, zigzag

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
VERSION = 2

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
        self._w = Writer(MAGIC, VERSION)
        self._suppress = suppress
        self._max_window = max_window
        self._strict_time = strict_time
        self._suppressor: Optional[RepeatSuppressor] = None
        self._deltas: Optional[DeltaEncoder] = None
        self._last_time = float("-inf")
        self._in_buffer = False
        self._closed = False
        self.stats = CompactionStats(record_bytes)
        self._w.string(app_name)
        encode_uvarint(record_bytes, self._w.out)
        self._emit(self._w.take())

    # -- plumbing -----------------------------------------------------------------

    def _emit(self, data: bytes) -> None:
        self.stats.compact_bytes += len(data)
        self._fh.write(data)

    # -- the writing interface ----------------------------------------------------

    def write_function(self, fid: int, name: str) -> None:
        """Register one function-table entry (fid -> name)."""
        out = self._w.out
        out.append(_OP_FUNC)
        encode_uvarint(fid, out)
        self._w.string(name)
        self._emit(self._w.take())

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
        out = self._w.out
        out.append(_OP_BUF)
        encode_uvarint(process, out)
        encode_uvarint(thread, out)
        self._emit(self._w.take())

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
        """Write the seal; returns the accumulated stats."""
        if self._in_buffer:
            self.end_buffer()
        if not self._closed:
            self._emit(self._w.seal())
            self._closed = True
        return self.stats

    # -- encoding -----------------------------------------------------------------

    def _encode_element(self, element: Union[TraceRecord, Fold]) -> None:
        out = self._w.out
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
        self._emit(self._w.take())

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
            self._w.string(rec.op)
            encode_uvarint(rec.comm_size, out)
        elif cls is MarkerRecord:
            out.append(_OP_MARKER)
            self._w.string(rec.name)
        else:
            raise TypeError(f"unknown record type {cls.__name__}")


class CompactReader:
    """Streaming VGVZ decoder.

    ``iter_records()`` yields ``(process, thread, record)`` lazily, in
    stream order, expanding LOOP groups back into their constituent
    records; :meth:`read_trace` materialises a full
    :class:`~repro.vt.buffer.TraceFile`.  Any damaged byte raises
    :class:`~repro.compact.container.DecodeError` before a record is
    yielded.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self.functions: Dict[int, str] = {}
        self._open()

    @classmethod
    def from_file(cls, path: str) -> "CompactReader":
        """Open a VGVZ file on disk."""
        with open(path, "rb") as fh:
            return cls(fh.read())

    # -- decoding primitives ------------------------------------------------------

    def _open(self) -> Reader:
        """A cursor past the header (whose fields it sets)."""
        r = Reader(self._data, MAGIC, VERSION, "VGVZ trace")
        self.app_name = r.string()
        self.record_bytes = r.uvarint()
        return r

    @staticmethod
    def _decode_structure(r: Reader, op: int) -> Tuple[Any, ...]:
        """The key tuple of one structural descriptor opened by ``op``."""
        if op == _OP_ENTER or op == _OP_LEAVE:
            return (op, r.uvarint())
        if op == _OP_BATCH:
            return (op, r.uvarint(), r.uvarint())
        if op == _OP_MSG:
            kind = "send" if r.byte() == 0 else "recv"
            return (op, kind, r.svarint(), r.svarint(), r.uvarint())
        if op == _OP_COLL:
            return (op, r.string(), r.uvarint())
        if op == _OP_MARKER:
            return (op, r.string())
        raise DecodeError(f"unknown record opcode {op:#x}")

    @staticmethod
    def _build(key: Tuple[Any, ...], r: Reader, deltas: DeltaDecoder) -> TraceRecord:
        """The record ``key`` describes, its timestamps read from ``r``."""
        op = key[0]
        t = r.float(deltas)
        if op == _OP_ENTER:
            return EnterRecord(key[1], t)
        if op == _OP_LEAVE:
            return LeaveRecord(key[1], t)
        if op == _OP_MSG:
            return MsgRecord(key[1], key[2], key[3], key[4], t)
        t2 = r.float(deltas)
        if op == _OP_BATCH:
            return BatchPairRecord(key[1], key[2], t, t2, r.float(deltas))
        if op == _OP_COLL:
            return CollectiveRecord(key[1], key[2], t, t2)
        return MarkerRecord(key[1], t, t2)  # the last op _decode_structure admits

    # -- the reading interface ----------------------------------------------------

    def iter_records(self) -> Iterator[Tuple[int, int, TraceRecord]]:
        """Yield ``(process, thread, record)`` in stream order."""
        r = self._open()
        process = thread = -1
        deltas: Optional[DeltaDecoder] = None
        while not r.end():
            op = r.byte()
            if op == _OP_FUNC:
                fid = r.uvarint()
                self.functions[fid] = r.string()
            elif op == _OP_BUF:
                process = r.uvarint()
                thread = r.uvarint()
                deltas = DeltaDecoder()
            elif deltas is None:
                raise DecodeError("record opcode before any buffer header")
            elif op == _OP_LOOP:
                width = r.uvarint()
                if width == 0:
                    # A Fold has at least one record; an empty body
                    # would spin n times without consuming a byte.
                    raise DecodeError("corrupt VGVZ LOOP: zero-width body")
                n = r.uvarint()
                keys = [self._decode_structure(r, r.byte()) for _ in range(width)]
                for _ in range(n):
                    for key in keys:
                        yield process, thread, self._build(key, r, deltas)
            else:
                yield process, thread, self._build(
                    self._decode_structure(r, op), r, deltas)

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
    """Compact size of one record list (no header/table/seal overhead).

    This is the per-buffer accounting hook
    :attr:`~repro.vt.buffer.ThreadTraceBuffer.compact_bytes` uses: the
    bytes the buffer's records cost inside a VGVZ stream, excluding the
    file header, function table and seal so per-rank numbers add up.
    """
    writer = CompactWriter(io.BytesIO(), max_window=max_window)
    header = writer.stats.compact_bytes
    writer.begin_buffer(0, 0)
    for rec in records:
        writer.write(rec)
    writer.end_buffer()
    return writer.stats.compact_bytes - header
