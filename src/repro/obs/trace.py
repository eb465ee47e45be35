"""Causal event tracing of the simulator — the *what happened when* layer.

:mod:`repro.obs.registry` answers "how much"; this module answers
"when, on which rank, caused by what".  One :class:`Tracer` records,
per (pid, tid) **track**:

* **spans** — named intervals in simulated seconds (a VT buffer flush,
  a confsync epoch, a dynprof patch window, a traced function body);
* **instant events** — point-in-time marks (a probe installed, a
  configuration epoch applied);
* **flow edges** — directed links between causally related events on
  different tracks: an ``MPI_Send`` and the delivery of its envelope,
  a dynprof patch and the processes it landed in.

Every track stores its events in a **bounded ring buffer**: once
``capacity`` events have accumulated the oldest are evicted and the
track's ``dropped`` counter ticks — trace volume is a first-class,
measured quantity, exactly the constraint the paper's trace formats
live under.  Aggregates that must survive eviction (per-category span
totals, raw-record counts for the trace-volume model) are kept in
drop-immune side tables (:attr:`Tracer.totals`, :attr:`Tracer.counts`).

The tracer is one sink of the current :class:`~repro.obs.tap.Tap`,
the shared :data:`~repro.obs.tap.OFF` until a block enters
:func:`tracing`.  Instrumented components capture the tap **once at
construction**; the tap's events emit into the tracer, so with tracing
off a hook site costs its one ``tap.enabled`` check and the simulation
itself is never perturbed — no costs, no RNG draws, no events; figure
outputs are bit-identical either way.

The ``detail`` knob selects between ``"fine"`` (everything, including
per-function spans from the VT probe path) and ``"coarse"``
(subsystem-level spans and flows only) — the same volume/visibility
trade the paper's deactivation tables implement for real traces.
"""

from __future__ import annotations

from collections import deque
from typing import Any, ContextManager, Deque, Dict, List, Optional, Tuple, Union

from . import tap as _tap

__all__ = [
    "Tracer",
    "TraceEvent",
    "TrackBuffer",
    "DEFAULT_CAPACITY",
    "get",
    "tracing",
]

#: Default per-track ring-buffer capacity (events).
DEFAULT_CAPACITY = 65536

#: Event phases stored in the ring (mnemonic, JSON-stable):
#: "span" complete span, "inst" instant, "fs" flow start, "ff" flow end.
SPAN = "span"
INSTANT = "inst"
FLOW_START = "fs"
FLOW_END = "ff"


class TraceEvent:
    """One recorded event on one track."""

    __slots__ = ("ph", "name", "cat", "ts", "dur", "args", "flow")

    def __init__(
        self,
        ph: str,
        name: str,
        cat: str,
        ts: float,
        dur: float = 0.0,
        args: Optional[Dict[str, Any]] = None,
        flow: Optional[int] = None,
    ) -> None:
        self.ph = ph
        self.name = name
        self.cat = cat
        self.ts = ts
        self.dur = dur
        self.args = args
        self.flow = flow

    @property
    def end(self) -> float:
        return self.ts + self.dur

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"ph": self.ph, "name": self.name,
                             "cat": self.cat, "ts": self.ts}
        if self.ph == SPAN:
            d["dur"] = self.dur
        if self.flow is not None:
            d["id"] = self.flow
        if self.args:
            d["args"] = self.args
        return d

    def __repr__(self) -> str:
        return f"<TraceEvent {self.ph} {self.name!r} t={self.ts:.6f}>"


class TrackBuffer:
    """The bounded event ring of one (pid, tid) track."""

    __slots__ = ("pid", "tid", "name", "capacity", "events", "dropped",
                 "compact", "folded", "_stack")

    def __init__(self, pid: int, tid: int, name: str, capacity: int,
                 compact: bool = False) -> None:
        if capacity < 1:
            raise ValueError(f"track capacity must be >= 1, got {capacity}")
        self.pid = pid
        self.tid = tid
        self.name = name
        self.capacity = capacity
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        #: Events evicted from the ring (the paper's lost-data honesty).
        self.dropped = 0
        #: Compact-on-full: fold repeated event subsequences before
        #: evicting anything (see :mod:`repro.compact.suppress`).
        self.compact = compact
        #: Events absorbed into folds (their counts live on in the
        #: survivors' ``args["folded"]``) — degraded, not lost.
        self.folded = 0
        #: Open begin() marks awaiting their end() (name, cat, ts, args).
        self._stack: List[Tuple[str, str, float, Optional[Dict[str, Any]]]] = []

    def append(self, event: TraceEvent) -> None:
        if len(self.events) == self.capacity:
            if not self.compact or self._fold() == 0:
                self.dropped += 1
        self.events.append(event)

    def _fold(self) -> int:
        """Compact the ring in place; returns the number of slots freed.

        Repeated subsequences of span/instant events (same name and
        category) collapse into their first iteration's events, each
        annotated with ``args["folded"]`` = the total occurrence count
        and, for spans, stretched to cover the folded extent — so a
        full ring sheds redundancy before it sheds information.
        """
        from ..compact.suppress import fold_ring

        events = list(self.events)
        folded = fold_ring(events, _fold_key, _merge_fold)
        freed = len(events) - len(folded)
        if freed:
            self.folded += freed
            self.events.clear()
            self.events.extend(folded)
        return freed

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "tid": self.tid,
            "name": self.name,
            "dropped": self.dropped,
            "folded": self.folded,
            "open_spans": len(self._stack),
            "events": [e.to_dict() for e in self.events],
        }

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return (
            f"<TrackBuffer {self.name!r} {len(self.events)} events, "
            f"{self.dropped} dropped>"
        )


def _fold_key(event: TraceEvent) -> Tuple[Any, ...]:
    """Structural identity for ring folding (timestamps excluded).

    Flow edge ids are deliberately *not* part of the key: a timestep
    loop emits a fresh id per iteration, so keying on them would block
    every fold containing communication.  The merged survivor keeps the
    first iteration's id; later edges dissolve into the fold count —
    the same information loss eviction would cause, minus the survivor.
    """
    return (event.ph, event.name, event.cat)


def _fold_count(event: TraceEvent) -> int:
    args = event.args
    if args is not None:
        folded = args.get("folded")
        if isinstance(folded, int):
            return folded
    return 1


def _merge_fold(fold) -> List[TraceEvent]:
    """Collapse a fold to its first iteration, counts preserved.

    Each surviving event carries ``args["folded"]`` = how many
    occurrences it stands for (re-folding an already-folded survivor
    sums the counts); spans stretch to the folded extent so the
    timeline still covers the right interval.
    """
    iterations = fold.iterations
    first, last = iterations[0], iterations[-1]
    merged: List[TraceEvent] = []
    for j, event in enumerate(first):
        count = sum(_fold_count(it[j]) for it in iterations)
        args = dict(event.args) if event.args else {}
        args["folded"] = count
        # Batch spans carry their iteration count in args["n"]; keep
        # the total exact across a fold.
        if isinstance(args.get("n"), int):
            args["n"] = sum(
                it[j].args["n"] for it in iterations
                if it[j].args and isinstance(it[j].args.get("n"), int)
            )
        dur = event.dur
        if event.ph == SPAN:
            dur = max(dur, last[j].end - event.ts)
        merged.append(TraceEvent(event.ph, event.name, event.cat,
                                 event.ts, dur, args, event.flow))
    return merged


class Tracer:
    """Process-local causal tracer (the live backend)."""

    __slots__ = ("enabled", "detail", "fine", "capacity", "compact",
                 "tracks", "totals", "counts", "_next_flow")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 detail: str = "fine", compact: bool = False) -> None:
        if detail not in ("fine", "coarse"):
            raise ValueError(f"detail must be 'fine' or 'coarse': {detail!r}")
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        #: The tap tests exactly this attribute before emitting.
        self.enabled = True
        self.detail = detail
        #: Pre-resolved detail flag so per-function sites pay one load.
        self.fine = detail == "fine"
        self.capacity = capacity
        #: Fold repeated event subsequences when a ring fills, instead
        #: of evicting immediately (repro.compact ring compaction).
        self.compact = compact
        self.tracks: Dict[Tuple[int, int], TrackBuffer] = {}
        #: category -> [span_count, total_duration]; immune to ring drops.
        self.totals: Dict[str, List[float]] = {}
        #: named counters immune to ring drops (trace-volume model inputs).
        self.counts: Dict[str, Union[int, float]] = {}
        self._next_flow = 0

    # -- tracks ---------------------------------------------------------------

    def track(self, pid: int, tid: int = 0,
              name: Optional[str] = None) -> TrackBuffer:
        """The (pid, tid) track, created (and optionally named) on first use."""
        key = (pid, tid)
        buf = self.tracks.get(key)
        if buf is None:
            if name is None:
                name = f"rank {pid}" if tid == 0 else f"rank {pid}.t{tid}"
            buf = self.tracks[key] = TrackBuffer(pid, tid, name, self.capacity,
                                                 compact=self.compact)
        elif name is not None:
            buf.name = name
        return buf

    # -- emission -------------------------------------------------------------

    def begin(self, pid: int, tid: int, name: str, cat: str, ts: float,
              args: Optional[Dict[str, Any]] = None) -> None:
        """Open a span on a track; closed (and recorded) by :meth:`end`."""
        self._track(pid, tid)._stack.append((name, cat, ts, args))

    def end(self, pid: int, tid: int, ts: float) -> None:
        """Close the innermost open span on a track.

        An end with no matching begin is ignored (asymmetric
        instrumentation tolerance, as in the VT shadow stack).
        """
        buf = self._track(pid, tid)
        if not buf._stack:
            return
        name, cat, t0, args = buf._stack.pop()
        self._emit_span(buf, name, cat, t0, max(ts, t0), args)

    def complete(self, pid: int, tid: int, name: str, cat: str,
                 t0: float, t1: float,
                 args: Optional[Dict[str, Any]] = None) -> None:
        """Record a span whose both ends are already known."""
        self._emit_span(self._track(pid, tid), name, cat, t0, max(t1, t0), args)

    def instant(self, pid: int, tid: int, name: str, cat: str, ts: float,
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a point-in-time event."""
        self._track(pid, tid).append(TraceEvent(INSTANT, name, cat, ts, 0.0, args))

    # -- flow edges -----------------------------------------------------------

    def new_flow(self) -> int:
        """A fresh flow id linking one causal pair (or fan-out set)."""
        self._next_flow += 1
        return self._next_flow

    def flow_start(self, pid: int, tid: int, flow: int, name: str, cat: str,
                   ts: float, args: Optional[Dict[str, Any]] = None) -> None:
        """The cause end of a flow edge (e.g. the send)."""
        self._track(pid, tid).append(
            TraceEvent(FLOW_START, name, cat, ts, 0.0, args, flow)
        )

    def flow_end(self, pid: int, tid: int, flow: int, name: str, cat: str,
                 ts: float, args: Optional[Dict[str, Any]] = None) -> None:
        """The effect end of a flow edge (e.g. the matching delivery)."""
        self._track(pid, tid).append(
            TraceEvent(FLOW_END, name, cat, ts, 0.0, args, flow)
        )

    # -- drop-immune aggregates ----------------------------------------------

    def count(self, name: str, n: Union[int, float] = 1) -> None:
        """Add ``n`` to a drop-immune counter (e.g. raw VT records)."""
        self.counts[name] = self.counts.get(name, 0) + n

    # -- internals ------------------------------------------------------------

    def _track(self, pid: int, tid: int) -> TrackBuffer:
        buf = self.tracks.get((pid, tid))
        if buf is None:
            buf = self.track(pid, tid)
        return buf

    def _emit_span(self, buf: TrackBuffer, name: str, cat: str,
                   t0: float, t1: float,
                   args: Optional[Dict[str, Any]]) -> None:
        buf.append(TraceEvent(SPAN, name, cat, t0, t1 - t0, args))
        agg = self.totals.get(cat)
        if agg is None:
            self.totals[cat] = [1, t1 - t0]
        else:
            agg[0] += 1
            agg[1] += t1 - t0

    # -- export ---------------------------------------------------------------

    @property
    def dropped_events(self) -> int:
        """Total events evicted from all ring buffers."""
        return sum(b.dropped for b in self.tracks.values())

    @property
    def folded_events(self) -> int:
        """Total events absorbed into ring folds (degraded, not lost)."""
        return sum(b.folded for b in self.tracks.values())

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe trace document (the worker-envelope payload)."""
        return {
            "kind": "repro.trace",
            "version": 1,
            "clock": "simulated-seconds",
            "detail": self.detail,
            "capacity": self.capacity,
            "compact": self.compact,
            "dropped_events": self.dropped_events,
            "folded_events": self.folded_events,
            "tracks": [
                self.tracks[k].to_dict() for k in sorted(self.tracks)
            ],
            "totals": {
                cat: {"count": int(v[0]), "total": v[1]}
                for cat, v in sorted(self.totals.items())
            },
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
        }

    def reset(self) -> None:
        """Drop every track and aggregate (a fresh tracer, same identity)."""
        self.tracks.clear()
        self.totals.clear()
        self.counts.clear()
        self._next_flow = 0

    def __repr__(self) -> str:
        n = sum(len(b) for b in self.tracks.values())
        return (
            f"<Tracer {len(self.tracks)} tracks, {n} events, "
            f"{self.dropped_events} dropped, detail={self.detail}>"
        )


def get() -> Any:
    """The current tap's tracer (:data:`~repro.obs.tap.OFF` when tracing
    is off)."""
    return _tap.get().trace


def tracing(tracer: Optional[Tracer] = None, *,
            capacity: int = DEFAULT_CAPACITY,
            detail: str = "fine",
            compact: bool = False) -> ContextManager[Tracer]:
    """Install a (fresh by default) tracer in the tap for a block; only
    objects *constructed inside* it emit into it."""
    if tracer is None:
        tracer = Tracer(capacity=capacity, detail=detail, compact=compact)
    return _tap.installed("trace", tracer)
