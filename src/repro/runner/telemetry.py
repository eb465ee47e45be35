"""Structured sweep telemetry — JSON lines plus running counters.

One :class:`SweepTelemetry` instance accompanies one
:class:`~repro.runner.runner.SweepRunner`; each
:meth:`SweepRunner.run <repro.runner.runner.SweepRunner.run>` call is
one sweep.
Every event is a single JSON object on its own line, written to the
given stream (e.g. stderr for ``--progress``) and retained in
``.events`` for tests and programmatic inspection:

``{"event": "sweep_start", "seq": 1, "total": 25, "cached": 20,
  "jobs": 4}``
``{"event": "point", "seq": 2, "label": ..., "key": ..., "cache_key":
  ..., "status": "ok", "cached": false, "sim_time": 12.81,
  "wall_time": 0.42, "attempts": 1, "done": 3, "of": 25}``

``seq`` is a monotonic per-run sequence number (1-based, no gaps), so
consumers that aggregate, filter or interleave multiple streams can
re-establish emission order without relying on file position.  The
full event schema is documented in ``docs/runner.md``.

(``key`` is the 12-character short form for human eyes; ``cache_key``
is the full content hash, usable directly against the result cache.)
``{"event": "sweep_end", "total": 25, "ok": 25, "cached": 20,
  "failed": 0, "hit_rate": 0.8, "wall_time": 2.1}``

``hit_rate`` is cached-points over total points — the acceptance
telemetry for "a re-run with the same config completes with 100% cache
hits".

Durability: every event is written and flushed as one line (a consumer
tailing the stream never sees a partial record followed by more
output), and ``sweep_end`` additionally fsyncs file-backed streams so
the completed log survives a machine crash.  :func:`read_telemetry`
is the matching reader: it tolerates the one failure mode those
guarantees allow — a *final* line truncated mid-write — and raises on
anything else (mid-file corruption, ``seq`` gaps), which per-line
atomicity makes impossible without external tampering or data loss.
"""

from __future__ import annotations

import json
import os
import time
from typing import IO, Any, Dict, Iterable, List, Optional, Union

__all__ = ["SweepTelemetry", "read_telemetry"]


def read_telemetry(
    source: Union[str, IO[str], Iterable[str]]
) -> List[Dict[str, Any]]:
    """Parse a telemetry JSON-lines log back into its event records.

    ``source`` is a path, a text stream, or an iterable of lines.  A
    truncated or corrupt *last* line — the only damage an interrupted
    writer can leave, since every event is written and flushed whole —
    is dropped silently.  A corrupt line with valid records after it,
    or a gap/regression in the per-run ``seq`` numbering, indicates
    real data loss and raises :class:`ValueError`.  ``seq`` restarting
    at 1 is allowed (several runs appended to one log).
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    elif hasattr(source, "read"):
        lines = source.read().splitlines()  # type: ignore[union-attr]
    else:
        lines = [line.rstrip("\n") for line in source]
    while lines and not lines[-1].strip():
        lines.pop()

    events: List[Dict[str, Any]] = []
    expected_seq: Optional[int] = None
    for i, line in enumerate(lines):
        if not line.strip():
            raise ValueError(
                f"telemetry log line {i + 1}: blank line inside the log"
            )
        try:
            record = json.loads(line)
        except ValueError:
            if i == len(lines) - 1:
                # The interrupted-writer tail; drop it.
                break
            raise ValueError(
                f"telemetry log line {i + 1}: corrupt record with valid "
                "records after it (per-line writes cannot produce this)"
            )
        if not isinstance(record, dict) or "seq" not in record:
            raise ValueError(
                f"telemetry log line {i + 1}: not a telemetry event record"
            )
        seq = record["seq"]
        if expected_seq is not None and seq != expected_seq and seq != 1:
            raise ValueError(
                f"telemetry log line {i + 1}: seq {seq} where "
                f"{expected_seq} was expected (missing events)"
            )
        expected_seq = seq + 1
        events.append(record)
    return events


#: Counters that restart with every sweep; :meth:`SweepTelemetry.summary`
#: sums them over the sweeps of the runner.
_SWEEP_COUNTERS = ("total", "done", "cached", "failed", "corrupt_discards")


class SweepTelemetry:
    """Counters + JSON-lines emitter for the sweeps of one runner.

    ``total``, ``done``, ``cached``, ``failed`` and ``corrupt_discards``
    count the current sweep (what ``point`` and ``sweep_end`` events
    report); ``retries`` and ``warnings`` count every sweep."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self.stream = stream
        self.events: List[Dict[str, Any]] = []
        self.total = 0
        self.done = 0
        self.cached = 0
        self.failed = 0
        self.retries = 0
        self.warnings = 0
        #: Corrupt cache entries discarded during this sweep (set by the
        #: runner from the cache backend's counter before ``sweep_end``).
        self.corrupt_discards = 0
        #: The per-sweep counters of the sweeps before the current one.
        self._earlier = dict.fromkeys(_SWEEP_COUNTERS, 0)
        self._t0: Optional[float] = None
        self._seq = 0

    # -- emission -------------------------------------------------------------

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        self._seq += 1
        record = {"event": event, "seq": self._seq, **fields}
        self.events.append(record)
        if self.stream is not None:
            self.stream.write(json.dumps(record) + "\n")
            self.stream.flush()
        return record

    # -- lifecycle ------------------------------------------------------------

    def sweep_start(self, total: int, cached: int, jobs: int,
                    started: Optional[float] = None) -> None:
        """Open a sweep.  ``started`` is the ``time.perf_counter()``
        reading the sweep began at (default: now); ``sweep_end``'s
        ``wall_time`` counts from it, so a runner that keys and probes
        the cache before it knows ``cached`` still counts that work."""
        self._t0 = time.perf_counter() if started is None else started
        for name in _SWEEP_COUNTERS:
            self._earlier[name] += getattr(self, name)
            setattr(self, name, 0)
        self.total = total
        self.emit("sweep_start", total=total, cached=cached, jobs=jobs)

    def point_finished(
        self,
        label: str,
        key: str,
        status: str,
        cached: bool,
        wall_time: float,
        sim_time: Optional[float],
        attempts: int,
        obs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.done += 1
        if cached:
            self.cached += 1
        if status != "ok":
            self.failed += 1
        fields: Dict[str, Any] = dict(
            label=label,
            key=key[:12],
            cache_key=key,
            status=status,
            cached=cached,
            sim_time=sim_time,
            wall_time=round(wall_time, 6),
            attempts=attempts,
            done=self.done,
            of=self.total,
        )
        if obs is not None:
            # The point's simulator-metrics snapshot (metrics collector on).
            fields["obs"] = obs
        self.emit("point", **fields)

    def retry_scheduled(
        self, label: str, key: str, attempt: int, delay: float
    ) -> None:
        """A crashed point was granted another attempt."""
        self.retries += 1
        self.emit(
            "retry",
            label=label,
            key=key[:12],
            attempt=attempt,
            delay=round(delay, 6),
        )

    def warning(self, message: str, **fields: Any) -> None:
        """A non-fatal degradation (e.g. a failed cache write)."""
        self.warnings += 1
        self.emit("warning", message=message, **fields)

    def sweep_end(self) -> Dict[str, Any]:
        wall = time.perf_counter() - self._t0 if self._t0 is not None else 0.0
        record = self.emit(
            "sweep_end",
            total=self.total,
            ok=self.done - self.failed,
            cached=self.cached,
            failed=self.failed,
            hit_rate=self.hit_rate,
            corrupt_discards=self.corrupt_discards,
            wall_time=round(wall, 6),
        )
        if self.stream is not None:
            # The closing record makes the log complete; push it to
            # stable storage so a crash after the sweep cannot lose it.
            # Streams without a real file descriptor (StringIO, some
            # pipes) simply skip the fsync.
            try:
                os.fsync(self.stream.fileno())
            except (AttributeError, OSError, ValueError):
                pass
        return record

    # -- summary --------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Cached points over total points of the current sweep (0.0
        when it is empty)."""
        return self.cached / self.total if self.total else 0.0

    def summary(self) -> Dict[str, Any]:
        """The counters summed over every sweep so far."""
        sums = {name: self._earlier[name] + getattr(self, name)
                for name in _SWEEP_COUNTERS}
        return {
            "total": sums["total"],
            "ok": sums["done"] - sums["failed"],
            "cached": sums["cached"],
            "failed": sums["failed"],
            "retries": self.retries,
            "warnings": self.warnings,
            "corrupt_discards": sums["corrupt_discards"],
            "hit_rate": sums["cached"] / sums["total"] if sums["total"] else 0.0,
        }
