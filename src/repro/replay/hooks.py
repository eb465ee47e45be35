"""Recorder/controller sinks — the replay side of the instrumentation tap.

The engine, the MPI mailboxes and the fault injector report each
decision through an event of the :class:`~repro.obs.tap.Tap` they
captured at construction, which hands it to the installed sink
(``Environment.run`` looks the sink up once per call).  A recorded-off
run pays one attribute read per decision site.  Figure outputs are byte-identical
with recording on or off — the recorder only observes.

Two sinks exist:

* :class:`OrderRecorder` appends every decision to an
  :class:`~repro.replay.orderlog.OrderLog`.
* :class:`ReplayController` verifies each decision against a recorded
  log and raises :class:`~repro.replay.errors.DivergenceError` at the
  first mismatch — including a re-run that makes *more* decisions than
  were recorded, or (via :meth:`ReplayController.finish`) fewer.

Use the :func:`recording` / :func:`replaying` context managers around
point execution; they must be entered *before* the simulation objects
are constructed (which :func:`repro.runner.worker.execute_point` does).
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, Optional

from ..compact.varint import float_to_bits
from ..obs import tap as _tap
from .errors import DivergenceError
from .orderlog import (
    CH_DELIVER,
    CH_EVENT,
    CH_FAULT,
    CH_MATCH,
    CHANNEL_NAMES,
    Decision,
    OrderLog,
)

__all__ = [
    "get",
    "recording",
    "replaying",
    "OrderRecorder",
    "ReplayController",
]


def _event_key(event: Any) -> str:
    """A stable identity string for one engine event."""
    name = getattr(event, "name", None)
    if name is not None:
        return "P:" + str(name)
    return type(event).__name__


def get() -> Any:
    """The current tap's replay sink (:data:`~repro.obs.tap.OFF` when
    neither recording nor replaying)."""
    return _tap.get().replay


class OrderRecorder:
    """Appends every nondeterminism decision to an order log.

    Each decision site appends plain values to the log's four columns;
    no per-decision object is built."""

    enabled = True

    def __init__(self, meta: Optional[Dict[str, Any]] = None) -> None:
        self.log = log = OrderLog(meta=meta)
        self._channels = log.channels
        self._keys = log.keys
        self._values = log.values
        self._times = log.times
        self._obs = _tap.get().obs

    # -- decision sites -------------------------------------------------------

    def on_event(self, event: Any, when: float, priority: int) -> None:
        """The engine drained one (non-cancelled) event."""
        self._channels.append(CH_EVENT)
        name = getattr(event, "name", None)  # _event_key, inlined
        self._keys.append(type(event).__name__ if name is None
                          else "P:" + str(name))
        self._values.append(priority)
        self._times.append(when)

    def on_deliver(self, src: int, dst: int, tag: int, context: str,
                   position: int, time: float) -> None:
        """An envelope arrived: matched posted recv #position, or -1 =
        filed into the unexpected queue."""
        self._channels.append(CH_DELIVER)
        self._keys.append(f"{src}>{dst}:{tag}:{context}")
        self._values.append(position)
        self._times.append(time)

    def on_match(self, src: int, dst: int, tag: int, context: str,
                 position: int, time: float) -> None:
        """A posted receive matched unexpected-queue envelope #position."""
        self._channels.append(CH_MATCH)
        self._keys.append(f"{src}>{dst}:{tag}:{context}")
        self._values.append(position)
        self._times.append(time)

    def on_fault(self, stream: str, draw: float, time: float) -> None:
        """The fault injector drew ``draw`` from named stream ``stream``."""
        self._channels.append(CH_FAULT)
        self._keys.append(stream)
        self._values.append(float_to_bits(draw))
        self._times.append(time)

    # -- bookkeeping ----------------------------------------------------------

    def flush_obs(self) -> None:
        """Fold the recording counters into the metrics registry once,
        at detach time, so the per-decision path stays allocation-only."""
        if self._obs.enabled and len(self.log):
            self._obs.inc("replay.recorded_decisions", len(self.log))
            self._obs.inc("replay.recordings")

    def snapshot(self) -> str:
        """The log as base64 RRLG bytes (the envelope attachment)."""
        return self.log.to_b64()

    def __repr__(self) -> str:
        return f"<OrderRecorder {len(self.log)} decision(s)>"


class ReplayController:
    """Verifies a re-run decision-by-decision against a recorded log."""

    enabled = True

    def __init__(self, log: OrderLog) -> None:
        self.log = log
        self.cursor = 0
        #: The first divergence, latched: the engine may catch the raised
        #: error inside a simulated process and keep draining events, so
        #: later checks re-raise this same report rather than a new one.
        self.failure: Optional[DivergenceError] = None
        self._obs = _tap.get().obs

    # -- decision sites (mirror OrderRecorder) --------------------------------

    def on_event(self, event: Any, when: float, priority: int) -> None:
        self._check(CH_EVENT, _event_key(event), priority, when)

    def on_deliver(self, src: int, dst: int, tag: int, context: str,
                   position: int, time: float) -> None:
        self._check(CH_DELIVER, f"{src}>{dst}:{tag}:{context}", position, time)

    def on_match(self, src: int, dst: int, tag: int, context: str,
                 position: int, time: float) -> None:
        self._check(CH_MATCH, f"{src}>{dst}:{tag}:{context}", position, time)

    def on_fault(self, stream: str, draw: float, time: float) -> None:
        self._check(CH_FAULT, stream, float_to_bits(draw), time)

    # -- verification ---------------------------------------------------------

    def _check(self, channel: int, key: str, value: int, time: float) -> None:
        if self.failure is not None:
            raise self.failure
        index = self.cursor
        log = self.log
        if index >= len(log):
            self._diverge(index, expected=None,
                          actual=Decision(channel, key, value, time), time=time)
        if ((channel, key, value, time) != (log.channels[index], log.keys[index],
                                            log.values[index], log.times[index])):
            self._diverge(index, expected=log.decision(index),
                          actual=Decision(channel, key, value, time), time=time)
        self.cursor = index + 1

    def _diverge(
        self,
        index: int,
        expected: Optional[Decision],
        actual: Optional[Decision],
        time: float,
    ) -> None:
        if self._obs.enabled:
            self._obs.inc("replay.divergences")
        side = actual if actual is not None else expected
        self.failure = DivergenceError(
            index=index,
            channel=CHANNEL_NAMES[side.channel] if side is not None else "?",
            sim_time=time,
            expected=expected.to_dict() if expected is not None else None,
            actual=actual.to_dict() if actual is not None else None,
        )
        raise self.failure

    def finish(self) -> None:
        """The re-run ended: every recorded decision must be consumed.

        Raises :class:`DivergenceError` if recorded decisions remain —
        the re-run took a shorter path than the recorded one."""
        if self.failure is not None:
            # The engine swallowed the in-run divergence (a crashed
            # process nobody joined on); a completed run must still
            # surface it rather than count as verified.
            raise self.failure
        if self.cursor < len(self.log):
            pending = self.log.decision(self.cursor)
            self._diverge(self.cursor, expected=pending, actual=None,
                          time=pending.time)
        if self._obs.enabled:
            self._obs.inc("replay.verified_decisions", self.cursor)
            self._obs.inc("replay.verified_runs")

    def snapshot(self) -> Dict[str, int]:
        """Decisions verified so far (the envelope attachment)."""
        return {"decisions": self.cursor}

    def __repr__(self) -> str:
        return f"<ReplayController {self.cursor}/{len(self.log)}>"


@contextlib.contextmanager
def recording(meta: Optional[Dict[str, Any]] = None) -> Iterator[OrderRecorder]:
    """Record every decision made while the context is active.

    Must wrap the *construction* of the simulation objects, which
    capture the tap once."""
    recorder = OrderRecorder(meta=meta)
    try:
        with _tap.installed("replay", recorder):
            yield recorder
    finally:
        recorder.flush_obs()


@contextlib.contextmanager
def replaying(log: OrderLog) -> Iterator[ReplayController]:
    """Verify the enclosed run against ``log``; raises
    :class:`DivergenceError` at the first divergent decision, including
    a clean run that ends with recorded decisions still pending."""
    controller = ReplayController(log)
    with _tap.installed("replay", controller):
        yield controller
    # Reached only when no exception is in flight: enforce full
    # consumption (raises).
    controller.finish()
