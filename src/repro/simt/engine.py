"""The discrete-event simulation engine.

:class:`Environment` owns the event queue and the simulation clock.  The
queue is a *two-tier* scheduler that preserves the exact
``(time, priority, sequence)`` total order of the original flat binary
heap, which is what makes the whole simulation deterministic:

* **Tier 1 — same-key buckets.**  Every distinct ``(time, priority)``
  key owns a FIFO ring (:class:`collections.deque`) of events.  Because
  the historical sequence number was assigned at schedule time and only
  ever broke ties *within* one ``(time, priority)`` key, append order
  on the bucket *is* sequence order — the counter itself is gone.
  Same-timestamp events (zero-delay messages, barrier releases, bucket
  brigades of daemon acks) are drained in one batch without touching
  the heap at all.

* **Tier 2 — the key heap.**  Distinct keys that are not at the front
  live in a binary heap.  The heap only sees one entry per key, so a
  thousand events at one timestamp cost one push/pop instead of a
  thousand — the far-future overflow tier.

Cancellation is *lazy*: :meth:`Environment.cancel` flips a flag on the
event and the queue discards it when it surfaces, so withdrawing a
raced request timeout is O(1) instead of an O(n) heap surgery.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Deque, Dict, Optional, Tuple

from ..obs import get as _obs_get
from ..obs.trace import get as _trace_get
from ..replay.hooks import get as _replay_get
from .errors import SimtError, StopSimulation
from .events import NORMAL, PENDING, Event, Process, ProcessGenerator, Timeout

__all__ = ["Environment", "Infinity"]

#: Convenience alias used for "run until the queue drains".
Infinity = float("inf")


class Environment:
    """A simulation environment: clock + event queue + process bookkeeping.

    Typical use::

        env = Environment()

        def worker(env):
            yield env.timeout(1.5)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 1.5 and proc.value == "done"

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (seconds).
    strict:
        When True (default), a process that crashes with no observer
        (nothing joined on it) aborts the simulation with its exception
        instead of dying silently.  Mirrors the behaviour a real job
        launcher has when a rank aborts.
    """

    def __init__(self, initial_time: float = 0.0, strict: bool = True) -> None:
        self._now = float(initial_time)
        #: Tier 1: (time, priority) -> FIFO ring of events at that key.
        self._buckets: Dict[Tuple[float, int], Deque[Event]] = {}
        #: Tier 2: heap over the distinct keys present in ``_buckets``.
        self._keyheap: list = []
        #: Scheduled-and-not-cancelled event count (the live queue depth).
        self._live = 0
        self._active_process: Optional[Process] = None
        self.strict = strict
        self._crash: Optional[Tuple[Process, BaseException]] = None
        #: Total number of events processed (exposed for perf diagnostics).
        self.events_processed = 0
        #: Events withdrawn via :meth:`cancel` (diagnostics).
        self.events_cancelled = 0
        self._obs = _obs_get()
        self._trace = _trace_get()
        self._replay = _replay_get()

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` triggering ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Put a triggered event on the queue ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"invalid delay {delay}")
        key = (self._now + delay, priority)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = bucket = deque()
            heappush(self._keyheap, key)
        bucket.append(event)
        self._live += 1

    def cancel(self, event: Event) -> bool:
        """Lazily withdraw a scheduled event from the queue.

        The event stays physically queued but is discarded unprocessed
        when it surfaces: its callbacks never run and the clock never
        advances on its account.  Returns True if the event was
        scheduled and has now been cancelled; False if it was never
        scheduled (still pending), was already processed, or was
        already cancelled.
        """
        if event._cancelled or event.callbacks is None or event._value is PENDING:
            return False
        event._cancelled = True
        self._live -= 1
        self.events_cancelled += 1
        if self._obs.enabled:
            self._obs.inc("simt.cancelled")
        return True

    def peek(self) -> float:
        """Time of the next *live* event, or ``inf`` if the queue is empty.

        Cancelled events at the front are purged on the way."""
        buckets = self._buckets
        keyheap = self._keyheap
        while self._live:
            key = keyheap[0]
            bucket = buckets[key]
            while bucket and bucket[0]._cancelled:
                bucket.popleft()
            if bucket:
                return key[0]
            heappop(keyheap)
            del buckets[key]
        return Infinity

    def _pop(self) -> Tuple[Tuple[float, int], Event]:
        """Pop the next live event (skipping cancelled ones)."""
        buckets = self._buckets
        keyheap = self._keyheap
        while self._live:
            key = keyheap[0]
            bucket = buckets[key]
            while bucket:
                event = bucket.popleft()
                if not event._cancelled:
                    if not bucket:
                        heappop(keyheap)
                        del buckets[key]
                    return key, event
            heappop(keyheap)
            del buckets[key]
        raise SimtError("step() on an empty event queue")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if self._obs.enabled and self._live:
            # The queue only ever shrinks inside step(), so its depth at
            # the top of a step is exactly the running high-water mark.
            self._obs.inc("simt.events")
            self._obs.gauge_max("simt.queue_depth_hwm", self._live)
        if self._trace.enabled and self._live:
            # Drop-immune kernel-event count: lets a trace document be
            # sanity-checked against the engine's own bookkeeping.
            self._trace.count("simt.events")
        key, event = self._pop()
        when = key[0]
        if when < self._now:  # pragma: no cover - guarded by schedule()
            raise SimtError("event scheduled in the past")
        self._now = when
        self._live -= 1
        self.events_processed += 1
        if self._replay.enabled:
            self._replay.on_event(event, when, key[1])
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(event)
        if self._crash is not None:
            proc, exc = self._crash
            self._crash = None
            raise SimtError(
                f"unobserved process {proc.name!r} crashed at t={self._now}"
            ) from exc

    def _crashed(self, process: Process, exc: BaseException) -> None:
        """Record an unobserved process crash (strict mode)."""
        if self._crash is None:
            self._crash = (process, exc)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue drains;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its exception if it failed).
        """
        stop_event: Optional[Event] = None
        stop_time = Infinity
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:  # already processed
                if stop_event.ok:
                    return stop_event.value
                raise stop_event.value
            # Mark the event as observed so a failing process awaited via
            # run(until=...) is not treated as an unobserved crash.
            stop_event.callbacks.append(lambda _ev: None)
        else:
            stop_time = float(until)
            if not stop_time >= self._now:  # also rejects NaN
                raise ValueError(
                    f"until={stop_time} is not a time at or after now={self._now}"
                )

        # The hot loop.  Equivalent to ``while queue: step()`` but with
        # the per-event costs hoisted: observation/tracing enablement is
        # captured once per run() call, whole same-key buckets drain
        # without re-consulting the heap, and per-event counters
        # accumulate in locals that are flushed when the run ends.
        buckets = self._buckets
        keyheap = self._keyheap
        obs = self._obs
        trace = self._trace
        rep = self._replay
        obs_on = obs.enabled
        trace_on = trace.enabled
        rep_on = rep.enabled
        total = 0
        hwm = 0
        drained = False
        try:
            try:
                while self._live:
                    key = keyheap[0]
                    bucket = buckets[key]
                    # Purge cancelled events parked at the front.
                    while bucket and bucket[0]._cancelled:
                        bucket.popleft()
                    if not bucket:
                        heappop(keyheap)
                        del buckets[key]
                        continue
                    when = key[0]
                    if when > stop_time:
                        self._now = stop_time
                        break
                    self._now = when
                    if self._live > hwm:
                        hwm = self._live
                    # Drain the bucket.  New same-key schedules append
                    # behind us (correct: they carry later sequence
                    # positions); a new *smaller* key can only be same-
                    # time/lower-priority and shows up as a changed heap
                    # head, which we check after every event.
                    while bucket:
                        event = bucket.popleft()
                        if event._cancelled:
                            continue
                        self._live -= 1
                        total += 1
                        if rep_on:
                            rep.on_event(event, when, key[1])
                        callbacks, event.callbacks = event.callbacks, None
                        if callbacks:
                            for callback in callbacks:
                                callback(event)
                        if self._crash is not None:
                            proc, exc = self._crash
                            self._crash = None
                            raise SimtError(
                                f"unobserved process {proc.name!r} crashed "
                                f"at t={self._now}"
                            ) from exc
                        if stop_event is not None and stop_event.callbacks is None:
                            break
                        if keyheap[0] is not key:
                            break
                    if not bucket and keyheap[0] is key:
                        heappop(keyheap)
                        del buckets[key]
                    # The awaited event was processed (it was pending
                    # on entry, so this never skips a first iteration).
                    if stop_event is not None and stop_event.callbacks is None:
                        break
                else:
                    drained = True
            finally:
                if total:
                    self.events_processed += total
                    if obs_on:
                        obs.inc("simt.events", total)
                        obs.gauge_max("simt.queue_depth_hwm", hwm)
                    if trace_on:
                        trace.count("simt.events", total)
        except StopSimulation as stop:
            return stop.reason

        if drained:
            # An identity test against the Infinity alias would let a
            # caller's own float("inf")/math.inf object through and
            # corrupt the clock to now == inf once the queue drains.
            if not math.isinf(stop_time) and stop_time > self._now:
                self._now = stop_time

        if stop_event is not None:
            if stop_event._value is PENDING:
                raise SimtError(
                    "run() terminated with the awaited event still pending "
                    "(deadlock: no scheduled event can trigger it)"
                )
            if stop_event.ok:
                return stop_event.value
            raise stop_event.value
        return None

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={self._live}>"
