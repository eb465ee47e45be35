"""The one instrumentation tap every simulator hook site calls.

The metrics registry, the causal tracer, the time-series recorder and
the replay recorder/controller are the tap's *sinks*.  The one
:class:`Slot` holds the current tap, :data:`OFF` until a sink's install
helper (``obs.collecting()``, ``trace.tracing()``,
``timeseries.sampling()``, ``replay.recording()``/``replaying()``) adds
its sink to a copy of it for a block.

Simulator components capture the tap once, at construction.  Each hook
site tests ``tap.enabled`` once and calls one event; only the events
name the sinks, so one event feeds every document that counts it.
:data:`OFF` has no methods, so a call that skipped its guard fails
loudly; it is also each sink it lacks.  This module imports no sink.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["OFF", "Slot", "Tap", "TOOL_PID", "get", "installed"]

#: Reserved trace pid for the monitoring tool's own track (dynprof
#: sessions); rank tracks use their MPI rank / process index as pid.
TOOL_PID = 1_000_000

#: The tap's sinks: registry, tracer, time-series recorder, replay sink.
_SINKS = ("obs", "trace", "series", "replay")

#: Histogram bucket upper bounds for on-wire message sizes (bytes).
MSG_SIZE_EDGES = (64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304)


class _Off:
    """The switched-off tap and sink: flags only, no methods."""

    __slots__ = ()

    enabled = False
    fine = False

    def __repr__(self) -> str:
        return "<obs OFF>"


#: The shared switched-off tap, and the value of each sink it lacks.
OFF = _Off()
_Off.obs = _Off.trace = _Off.series = _Off.replay = OFF


class Tap:
    """The sinks the current collectors installed (each missing one is
    :data:`OFF`) and the events the simulator's hook sites call."""

    __slots__ = _SINKS + ("fine",)

    #: Hook sites test exactly this attribute before calling an event.
    enabled = True

    def __init__(self, obs: Any = OFF, trace: Any = OFF, series: Any = OFF, replay: Any = OFF):
        self.obs = obs
        self.trace = trace
        self.series = series
        self.replay = replay
        #: The tracer's detail: per-function spans on the VT probe path.
        self.fine = trace.fine

    # -- metrics-only counters ------------------------------------------------

    def inc(self, name: str, n: Any = 1) -> None:
        """Add ``n`` to the metrics counter ``name``."""
        if self.obs.enabled:
            self.obs.inc(name, n)

    # -- simt ------------------------------------------------------------------

    def engine_events(self, n: int, depth: int) -> None:
        """The engine drained ``n`` events; the queue peaked at ``depth``."""
        obs = self.obs
        if obs.enabled:
            obs.inc("simt.events", n)
            obs.gauge_max("simt.queue_depth_hwm", depth)
        if self.trace.enabled:
            # Drop-immune kernel-event count: lets a trace document be
            # sanity-checked against the engine's own bookkeeping.
            self.trace.count("simt.events", n)

    def engine_step(self, event: Any, when: float, priority: int, depth: int) -> None:
        """``Environment.step`` drained one event."""
        self.engine_events(1, depth)
        if self.replay.enabled:
            self.replay.on_event(event, when, priority)

    # -- mpi -------------------------------------------------------------------

    def mpi_send(self, envelope: Any, wire_bytes: int, delay: float, clamped: bool) -> None:
        """One launched message: metrics and the causal send edge."""
        size = envelope.size
        obs = self.obs
        if obs.enabled:
            if envelope.rendezvous:
                # 64 B of RTS control traffic now; the payload bytes are
                # committed to the wire as part of the same send.
                obs.inc("mpi.rendezvous_sends")
                obs.inc("mpi.wire_bytes", wire_bytes + size)
            else:
                obs.inc("mpi.eager_sends")
                obs.inc("mpi.wire_bytes", size)
            obs.observe("mpi.msg_bytes", size, MSG_SIZE_EDGES)
            if clamped:
                obs.inc("mpi.clamp_activations")
            obs.span("mpi.wire", delay)
        trace = self.trace
        if trace.enabled:
            envelope.flow = trace.new_flow()
            trace.flow_start(
                envelope.src, 0, envelope.flow, "mpi.send", "mpi",
                envelope.sent_at,
                args={"dst": envelope.dst, "tag": envelope.tag, "bytes": size,
                      "proto": "rendezvous" if envelope.rendezvous else "eager",
                      "ctx": envelope.context},
            )

    def mpi_deliver(self, envelope: Any, rank: int, position: int, unexpected: int) -> None:
        """An envelope arrived at ``rank``: it matched posted receive
        #``position``, or ``position`` is -1 and it joined the
        ``unexpected`` long unexpected queue."""
        now = envelope.arrived_at
        if envelope.flow is not None and self.trace.enabled:
            # Close the causal edge the sender opened: this delivery
            # could not have happened before that send.
            self.trace.flow_end(
                rank, 0, envelope.flow, "mpi.deliver", "mpi", now,
                args={"src": envelope.src, "tag": envelope.tag,
                      "bytes": envelope.size},
            )
        obs = self.obs
        if obs.enabled:
            if position < 0:
                obs.gauge_max("mpi.unexpected_hwm", unexpected)
            else:
                obs.inc("mpi.matched_posted")
        if self.replay.enabled:
            self.replay.on_deliver(envelope.src, rank, envelope.tag,
                                   envelope.context, position, now)

    def mpi_match(self, envelope: Any, rank: int, position: int, now: float) -> None:
        """A receive posted at ``rank`` matched unexpected envelope #``position``."""
        if self.obs.enabled:
            self.obs.inc("mpi.matched_unexpected")
        if self.replay.enabled:
            self.replay.on_match(envelope.src, rank, envelope.tag,
                                 envelope.context, position, now)

    # -- vt --------------------------------------------------------------------

    def vt_records(self, k: int) -> None:
        """``k`` raw trace records written."""
        if self.obs.enabled:
            self.obs.inc("vt.records", k)
        if self.trace.enabled:
            # Drop-immune raw-record count: the tracer-side input of the
            # trace-volume model (records x trace_record_bytes).
            self.trace.count("vt.records", k)

    def vt_flush(self, pid: int, tid: int, t0: float, dt: float, records: int, nbytes: int):
        """A mid-run trace-buffer flush of ``records`` records."""
        obs = self.obs
        if obs.enabled:
            obs.inc("vt.flushes")
            obs.inc("vt.flush_bytes", nbytes)
            obs.span("vt.flush", dt)
        if self.trace.enabled:
            self.trace.complete(pid, tid, "vt.flush", "vt.flush", t0, t0 + dt,
                                args={"records": records, "bytes": nbytes})

    def vt_epoch(self, pid: int, epoch: int, t: float) -> None:
        """A new configuration applied on process ``pid``."""
        if self.obs.enabled:
            self.obs.inc("vt.reconfigurations")
        if self.trace.enabled:
            self.trace.instant(pid, 0, "vt.epoch", "vt.confsync", t,
                               args={"epoch": epoch})

    def vt_probe(self, cost: float) -> None:
        """A probe event that cost ``cost``."""
        trace = self.trace
        if trace.enabled:
            trace.count("vt.probe_events")
            trace.count("vt.probe_time", cost)

    def vt_begin(self, pid: int, tid: int, name: str, t: float, cost: float) -> None:
        """An active VT_begin of function ``name``."""
        self.vt_probe(cost)
        if self.fine:
            self.trace.begin(pid, tid, name, "app", t)

    def vt_end(self, pid: int, tid: int, t: float, cost: float) -> None:
        """An active VT_end."""
        self.vt_probe(cost)
        if self.fine:
            self.trace.end(pid, tid, t)

    def vt_batch(self, pid: int, tid: int, name: str, n: int, t0: float, t1: float, cost: float):
        """``n`` batched (enter, leave) pairs of ``name`` over [t0, t1]."""
        trace = self.trace
        if trace.enabled:
            trace.count("vt.probe_events", 2 * n)
            trace.count("vt.probe_time", 2 * n * cost)
            if self.fine:
                # One aggregate span stands for the whole batch; the ring
                # would otherwise drown in per-iteration pairs.
                trace.complete(pid, tid, f"{name} x{n}", "app.batch", t0, t1,
                               args={"n": n})

    def vt_written(self, pid: int, buf: Any, suspensions: Any, init: Any) -> None:
        """Thread buffer ``buf`` written to the postmortem trace; its
        thread was suspended over ``suspensions``, VT_init ran at ``init``."""
        if self.obs.enabled:
            # Per-rank trace volume: the analytic raw size, O(1).
            self.obs.inc("vt.trace_raw_bytes", buf.raw_bytes)
        if self.trace.enabled:
            for start, end in suspensions:
                # Trace only mid-run suspensions (patch windows): stops
                # that ended before VT_init are spawn/instrument setup,
                # which the paper's reported time already excludes.
                if init is None or end > init:
                    self.trace.complete(pid, buf.thread, "suspended", "suspended",
                                        max(start, init or start), end)

    def vt_confsync(self, rank: int, t0: float, t1: float, epoch: int, changed: bool, stats: bool):
        """One rank's VT_confsync epoch."""
        obs = self.obs
        if obs.enabled:
            obs.inc("vt.confsync_epochs")
            if stats:
                obs.inc("vt.confsync_stats_writes")
        if self.trace.enabled:
            # One span per rank covering the whole epoch; cross-rank
            # causality (the config broadcast, the closing barrier) is
            # carried by the transport-level flow edges underneath.
            self.trace.complete(
                rank, 0, "VT_confsync", "vt.confsync", t0, t1,
                args={"epoch": epoch, "changed": changed, "stats": stats},
            )

    # -- program ---------------------------------------------------------------

    def tramp_fired(self, overhead: float) -> None:
        """A base trampoline fired at a cost of ``overhead``."""
        trace = self.trace
        if trace.enabled:
            trace.count("tramp.firings")
            trace.count("tramp.time", overhead)

    # -- dynprof ---------------------------------------------------------------

    def dynprof_session(self) -> None:
        """A dynprof session started: name the tool's track."""
        if self.trace.enabled:
            self.trace.track(TOOL_PID, 0, "dynprof")

    def dynprof_patch(self, counter: str, name: str, t0: float, t1: float, args: Any) -> None:
        """A mid-run patch window [t0, t1], counted as ``counter``."""
        obs = self.obs
        if obs.enabled:
            obs.inc(counter)
            obs.span("dynprof.patch", t1 - t0)
        if self.trace.enabled:
            self.trace.complete(TOOL_PID, 0, name, "dynprof.patch", t0, t1,
                                args=args)

    def dynprof_insert(self, globs: Any, installed: int, failed: int, probes: Any,
                       processes: Any, t0: float, t1: float) -> None:
        """``installed`` probes in, ``failed`` not, from ``globs``: ``probes``
        are the requests' ``(process, ...)`` rows, ``processes`` the
        job's process names in rank order."""
        obs = self.obs
        if obs.enabled:
            if failed:
                obs.inc("dynprof.probe_install_failures", failed)
            obs.inc("dynprof.probe_inserts", installed)
        trace = self.trace
        if trace.enabled:
            # One fan-out flow: the tool's install action is the cause of
            # the patched code appearing in every target process.
            per_proc = Counter(row[0] for row in probes)
            flow = trace.new_flow()
            trace.flow_start(TOOL_PID, 0, flow, "probe.insert", "dynprof", t0,
                             args={"probes": installed, "globs": list(globs)})
            for index, pname in enumerate(processes):
                if pname in per_proc:
                    trace.flow_end(index, 0, flow, "probe.patched", "dynprof",
                                   t1, args={"probes": per_proc[pname]})
            trace.instant(TOOL_PID, 0, "probe.insert", "dynprof", t1,
                          args={"probes": installed})

    def dynprof_remove(self, n: int, t: float) -> None:
        """``n`` probes removed."""
        if self.obs.enabled:
            self.obs.inc("dynprof.probe_removes", n)
        if self.trace.enabled:
            self.trace.instant(TOOL_PID, 0, "probe.remove", "dynprof", t,
                               args={"probes": n})

    # -- faults ----------------------------------------------------------------

    def fault_injected(self, kind: str, n: int) -> None:
        """``n`` faults of ``kind`` injected."""
        obs = self.obs
        if obs.enabled:
            obs.inc("faults.injected", n)
            obs.inc(f"faults.{kind}", n)

    def fault_draw(self, stream: str, value: float, t: float) -> None:
        """The fault injector drew ``value`` from named stream ``stream``."""
        if self.replay.enabled:
            self.replay.on_fault(stream, value, t)


class Slot:
    """Holds the current tap (:data:`OFF` when nothing is installed)."""

    __slots__ = ("_tap",)

    def __init__(self) -> None:
        self._tap: Any = OFF

    def get(self) -> Any:
        """The current tap; capture it once, at construction time."""
        return self._tap

    @contextmanager
    def installed(self, name: str, sink: Any) -> Iterator[Any]:
        """Make ``sink`` the tap's ``name`` sink for the block, then
        restore the previous tap: no point's observation leaks into the
        next."""
        previous = self._tap
        sinks = {field: getattr(previous, field) for field in _SINKS}
        self._tap = Tap(**{**sinks, name: sink})
        try:
            yield sink
        finally:
            self._tap = previous


_slot = Slot()

#: The current process-local tap (:data:`OFF` when nothing observes).
get = _slot.get

#: ``installed(name, sink)``: the sinks' install helpers call it.
installed = _slot.installed
