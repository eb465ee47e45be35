"""On-disk trace-file formats: save/load for postmortem inspection.

The paper's model assumes "the collected data is dumped to a tracefile
at program termination to allow postmortem inspection".  This module
gives :class:`~repro.vt.buffer.TraceFile` two concrete on-disk forms.

The line-oriented text format (header, function table, one record per
line) round-trips exactly and is trivially greppable:

.. code-block:: text

    VGVTRACE 1 <app> <record_bytes>
    F <fid> <name>
    B <process> <thread>
    E <fid> <t>                 # enter
    L <fid> <t>                 # leave
    P <fid> <n> <t0> <dt> <dur> # batch pair
    M <kind> <peer> <tag> <size> <t>
    C <op> <comm_size> <t0> <t1>
    K <name> <t0> <t1>          # marker

The *compact* binary format (``.vgvz``, :mod:`repro.compact`) applies
streaming repeat suppression and delta-encoded timestamps; it also
round-trips exactly (:func:`save_trace_compact` /
:func:`load_trace_compact` are the streaming writer/reader pair) while
costing a small fraction of the analytic model's
``records x record_bytes`` — see ``docs/compaction.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .buffer import ThreadTraceBuffer, TraceFile
from .records import (
    BatchPairRecord,
    CollectiveRecord,
    EnterRecord,
    LeaveRecord,
    MarkerRecord,
    MsgRecord,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..compact.codec import CompactionStats

__all__ = ["save_trace", "load_trace", "save_trace_compact",
           "load_trace_compact"]

_MAGIC = "VGVTRACE"
_VERSION = 1


def _quote(name: str) -> str:
    return name.replace("\\", "\\\\").replace(" ", "\\s")


def _unquote(token: str) -> str:
    return token.replace("\\s", " ").replace("\\\\", "\\")


def save_trace(trace: TraceFile, path: str) -> int:
    """Write ``trace`` to ``path``; returns the number of lines written."""
    lines = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_MAGIC} {_VERSION} {_quote(trace.app_name)} {trace.record_bytes}\n")
        lines += 1
        for fid, name in sorted(trace.func_names.items()):
            fh.write(f"F {fid} {_quote(name)}\n")
            lines += 1
        for (process, thread), buf in sorted(trace.buffers.items()):
            fh.write(f"B {process} {thread}\n")
            lines += 1
            for rec in buf.records:
                fh.write(_record_line(rec))
                lines += 1
    return lines


def _record_line(rec) -> str:
    if isinstance(rec, EnterRecord):
        return f"E {rec.fid} {rec.t!r}\n"
    if isinstance(rec, LeaveRecord):
        return f"L {rec.fid} {rec.t!r}\n"
    if isinstance(rec, BatchPairRecord):
        return f"P {rec.fid} {rec.n} {rec.t_first!r} {rec.period!r} {rec.duration!r}\n"
    if isinstance(rec, MsgRecord):
        return f"M {rec.kind} {rec.peer} {rec.tag} {rec.size} {rec.t!r}\n"
    if isinstance(rec, CollectiveRecord):
        return f"C {_quote(rec.op)} {rec.comm_size} {rec.t_start!r} {rec.t_end!r}\n"
    if isinstance(rec, MarkerRecord):
        return f"K {_quote(rec.name)} {rec.t_start!r} {rec.t_end!r}\n"
    raise TypeError(f"unknown record type {type(rec).__name__}")


def load_trace(path: str) -> TraceFile:
    """Read a trace file written by :func:`save_trace`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != _MAGIC:
            raise ValueError(f"{path}: not a {_MAGIC} file")
        if int(header[1]) != _VERSION:
            raise ValueError(f"{path}: unsupported version {header[1]}")
        trace = TraceFile(_unquote(header[2]), record_bytes=int(header[3]))
        buf: ThreadTraceBuffer | None = None
        for line_no, raw in enumerate(fh, start=2):
            parts = raw.split()
            if not parts:
                continue
            kind = parts[0]
            try:
                if kind == "F":
                    trace.register_function(int(parts[1]), _unquote(parts[2]))
                elif kind == "B":
                    buf = ThreadTraceBuffer(int(parts[1]), int(parts[2]))
                    trace.add_buffer(buf)
                elif buf is None:
                    raise ValueError("record before any buffer header")
                elif kind == "E":
                    buf.enter(int(parts[1]), float(parts[2]))
                elif kind == "L":
                    buf.leave(int(parts[1]), float(parts[2]))
                elif kind == "P":
                    buf.batch_pair(int(parts[1]), int(parts[2]), float(parts[3]),
                                   float(parts[4]), float(parts[5]))
                elif kind == "M":
                    buf.message(parts[1], int(parts[2]), int(parts[3]),
                                int(parts[4]), float(parts[5]))
                elif kind == "C":
                    buf.collective(_unquote(parts[1]), int(parts[2]),
                                   float(parts[3]), float(parts[4]))
                elif kind == "K":
                    buf.marker(_unquote(parts[1]), float(parts[2]), float(parts[3]))
                else:
                    raise ValueError(f"unknown record tag {kind!r}")
            except (IndexError, ValueError) as e:
                raise ValueError(f"{path}:{line_no}: {e}") from None
    return trace


def save_trace_compact(trace: TraceFile, path: str,
                       suppress: bool = True) -> "CompactionStats":
    """Write ``trace`` to ``path`` in the compact VGVZ binary format.

    Streams buffer by buffer through the repeat suppressor (``suppress=
    False`` disables folding but keeps the delta/varint framing) and
    returns the :class:`~repro.compact.codec.CompactionStats` accounting —
    raw records, compact bytes, and the ratio against the analytic
    ``records x record_bytes`` volume model.
    """
    from ..compact.codec import compress_trace

    with open(path, "wb") as fh:
        return compress_trace(trace, fh, suppress=suppress)


def load_trace_compact(path: str) -> TraceFile:
    """Read a VGVZ file written by :func:`save_trace_compact`.

    The decode is record-streaming and checks the stream's CRC-32 seal
    first, so truncation or a damaged byte raises instead of silently
    changing the trace.
    """
    from ..compact.codec import CompactReader

    return CompactReader.from_file(path).read_trace()
