"""Per-thread trace buffers and the postmortem trace file.

During the run every (process, thread) appends records to its own
:class:`ThreadTraceBuffer` (no cross-thread synchronisation, as in the
real Vampirtrace).  At program termination the buffers are flushed into a
:class:`TraceFile`, the postmortem artifact the VGV GUI (here,
:mod:`repro.analysis`) reads.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .records import (
    BatchPairRecord,
    CollectiveRecord,
    EnterRecord,
    LeaveRecord,
    MarkerRecord,
    MsgRecord,
    TraceRecord,
)

__all__ = ["ThreadTraceBuffer", "TraceFile", "DEFAULT_RECORD_BYTES"]

#: Bytes one raw on-disk record costs in the analytic volume model
#: (the :class:`TraceFile` default; machine specs carry the same 24).
DEFAULT_RECORD_BYTES = 24


class ThreadTraceBuffer:
    """Append-only record buffer of one thread of one process."""

    __slots__ = ("process", "thread", "records", "_raw_count",
                 "_compact_cache")

    def __init__(self, process: int, thread: int) -> None:
        self.process = process
        self.thread = thread
        self.records: List[TraceRecord] = []
        self._raw_count = 0
        #: (record-object count, compact bytes) memo for compact_bytes.
        self._compact_cache: Optional[Tuple[int, int]] = None

    # Hot-path append helpers (avoid isinstance dispatch later).

    def enter(self, fid: int, t: float) -> None:
        self.records.append(EnterRecord(fid, t))
        self._raw_count += 1

    def leave(self, fid: int, t: float) -> None:
        self.records.append(LeaveRecord(fid, t))
        self._raw_count += 1

    def batch_pair(self, fid: int, n: int, t_first: float, period: float, duration: float) -> None:
        self.records.append(BatchPairRecord(fid, n, t_first, period, duration))
        self._raw_count += 2 * n

    def message(self, kind: str, peer: int, tag: int, size: int, t: float) -> None:
        self.records.append(MsgRecord(kind, peer, tag, size, t))
        self._raw_count += 1

    def collective(self, op: str, comm_size: int, t_start: float, t_end: float) -> None:
        self.records.append(CollectiveRecord(op, comm_size, t_start, t_end))
        self._raw_count += 1

    def marker(self, name: str, t_start: float, t_end: Optional[float] = None) -> None:
        self.records.append(MarkerRecord(name, t_start, t_end))
        self._raw_count += 1

    @property
    def raw_record_count(self) -> int:
        """Number of raw (on-disk) records this buffer stands for."""
        return self._raw_count

    @property
    def raw_bytes(self) -> int:
        """Analytic on-disk size: ``raw_record_count x record bytes``."""
        return self._raw_count * DEFAULT_RECORD_BYTES

    @property
    def compact_bytes(self) -> int:
        """Bytes this buffer's records cost in the compact VGVZ codec.

        Computed on demand by running the streaming compactor over the
        records (and memoized until the buffer grows), so the append
        hot path pays nothing; ``raw_bytes / compact_bytes`` is the
        per-rank compression ratio the ``vt.trace_*_bytes`` observation
        counters mirror.
        """
        cache = self._compact_cache
        if cache is not None and cache[0] == len(self.records):
            return cache[1]
        from ..compact.codec import measure_compact_bytes

        size = measure_compact_bytes(self.records)
        self._compact_cache = (len(self.records), size)
        return size

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return (
            f"<ThreadTraceBuffer p{self.process}t{self.thread} "
            f"{len(self.records)} objs / {self._raw_count} raw>"
        )


class TraceFile:
    """The merged postmortem trace of one application run."""

    def __init__(self, app_name: str, record_bytes: int = 24) -> None:
        self.app_name = app_name
        self.record_bytes = record_bytes
        #: (process, thread) -> buffer
        self.buffers: Dict[Tuple[int, int], ThreadTraceBuffer] = {}
        #: fid -> function name, merged across processes (name-keyed ids
        #: are process-local; the writer remaps on flush).
        self.func_names: Dict[int, str] = {}

    def add_buffer(self, buffer: ThreadTraceBuffer) -> None:
        key = (buffer.process, buffer.thread)
        if key in self.buffers:
            raise ValueError(f"duplicate trace buffer for {key}")
        self.buffers[key] = buffer

    def register_function(self, fid: int, name: str) -> None:
        existing = self.func_names.get(fid)
        if existing is not None and existing != name:
            raise ValueError(
                f"fid {fid} maps to both {existing!r} and {name!r}"
            )
        self.func_names[fid] = name

    # -- accounting -------------------------------------------------------------

    @property
    def raw_record_count(self) -> int:
        return sum(b.raw_record_count for b in self.buffers.values())

    @property
    def size_bytes(self) -> int:
        """Estimated on-disk size (the quantity the paper wants to shrink)."""
        return self.raw_record_count * self.record_bytes

    @property
    def n_threads(self) -> int:
        return len(self.buffers)

    @property
    def n_processes(self) -> int:
        return len({p for p, _t in self.buffers})

    def records_of(self, process: int, thread: int = 0) -> List[TraceRecord]:
        return self.buffers[(process, thread)].records

    def all_records(self) -> Iterable[Tuple[int, int, TraceRecord]]:
        """Every record with its (process, thread), unspecified order
        across threads (records within a thread stay in time order)."""
        for (p, t), buf in self.buffers.items():
            for rec in buf.records:
                yield p, t, rec

    def function_name(self, fid: int) -> str:
        return self.func_names.get(fid, f"fid#{fid}")

    def __repr__(self) -> str:
        return (
            f"<TraceFile {self.app_name}: {self.n_processes} procs, "
            f"{self.raw_record_count} raw records, {self.size_bytes} bytes>"
        )
