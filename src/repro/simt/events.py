"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic generator-based design (as popularised by
SimPy): simulated activities are Python generators that ``yield`` events;
the :class:`~repro.simt.engine.Environment` resumes them when those events
trigger.  Everything in the parallel-machine simulation — MPI ranks, OpenMP
threads, DPCL daemons, the dynprof tool itself — is ultimately a
:class:`Process` yielding these events.

Determinism: events are ordered by ``(time, priority, sequence)`` where the
sequence number is a monotonically increasing integer assigned at schedule
time, so two runs of the same program produce identical event orderings.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

from .errors import DeadProcessError, EventRescheduleError, Interrupt, StopSimulation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import Environment

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "ProcessGenerator",
]

#: Sentinel for "event has not triggered yet".
PENDING = object()

#: Scheduling priority for urgent bookkeeping events (interrupts, aborts).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

ProcessGenerator = Generator["Event", Any, Any]


class Event:
    """A condition that may happen at a point in simulated time.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling it on the environment's queue.  When the
    environment pops it, the event is *processed*: all registered callbacks
    run, in registration order.

    Processes wait for an event by ``yield``-ing it.  Multiple processes may
    wait on the same event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_cancelled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks invoked (with the event) once processed; ``None`` after.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: Set by Environment.cancel(); the queue discards the event
        #: unprocessed when it surfaces (lazy deletion).
        self._cancelled: bool = False

    # -- state predicates -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the queue (or past it)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception when failed).

        Raises :class:`AttributeError` while the event is still pending.
        """
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise EventRescheduleError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; waiting processes get ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise EventRescheduleError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (chaining helper).

        Enforces the same state machine as :meth:`succeed`/:meth:`fail`:
        the source must already be triggered (otherwise ``self`` would be
        scheduled with ``_value is PENDING``, corrupting the deadlock
        detection in ``run(until=...)``) and ``self`` must not be.
        """
        if event._value is PENDING:
            raise ValueError(
                f"cannot chain from {event!r}: the source event has not "
                f"been triggered yet"
            )
        if self._value is not PENDING:
            raise EventRescheduleError(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    def __repr__(self) -> str:
        state = "pending"
        if self.processed:
            state = "processed"
        elif self.triggered:
            state = "triggered"
        return f"<{type(self).__name__} {state} at 0x{id(self):x}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"invalid delay {delay}")
        # Inlined Event.__init__ and Environment.schedule: timeouts are
        # the single most common event on the hot path, and they are
        # born triggered.
        self.env = env
        self.callbacks = []
        self._cancelled = False
        self.delay = delay
        self._ok = True
        self._value = value
        key = (env._now + delay, NORMAL)
        bucket = env._buckets.get(key)
        if bucket is None:
            env._buckets[key] = bucket = deque()
            heappush(env._keyheap, key)
        bucket.append(self)
        env._live += 1

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at 0x{id(self):x}>"


class Initialize(Event):
    """Internal: kicks off a newly created :class:`Process` immediately."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Process(Event):
    """Wraps a generator and resumes it as the events it yields trigger.

    A process is itself an event: it triggers when the generator returns
    (success, value = return value) or raises (failure).  Other processes
    can therefore ``yield`` a process to join on it.
    """

    __slots__ = ("_generator", "_target", "name", "_shim")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if running).
        self._target: Optional[Event] = None
        #: Pooled zero-delay resume event, reused every time the process
        #: yields an already-processed event (see _resume).
        self._shim: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for (None if active)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process is waiting on stays subscribed-to until the
        interrupt is delivered, at which point the process is detached from
        it; the process may re-yield the same event to resume waiting.
        Interrupting a dead process raises :class:`DeadProcessError`.
        """
        if not self.is_alive:
            raise DeadProcessError(f"{self!r} has terminated")
        if self._target is None:
            raise RuntimeError(
                f"{self!r} is not waiting on any event (cannot interrupt the "
                f"currently-running process)"
            )
        env = self.env
        interrupt_event = Event(env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.callbacks.append(self._deliver_interrupt)
        env.schedule(interrupt_event, priority=URGENT)

    def _deliver_interrupt(self, event: Event) -> None:
        if not self.is_alive:  # terminated between schedule and delivery
            return
        target = self._target
        if target is not None:
            if target is self._shim:
                # The pooled shim is already queued with our resume; it
                # must neither fire nor be reused while still queued.
                self.env.cancel(target)
                self._shim = None
            elif target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:  # pragma: no cover - already detached
                    pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        env._active_process = self
        self._target = None
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self._ok = True
            self._value = stop.value
            env.schedule(self)
            return
        except StopSimulation:
            env._active_process = None
            raise
        except BaseException as exc:
            env._active_process = None
            self._ok = False
            self._value = exc
            env.schedule(self)
            if not self.callbacks and env.strict:
                # Nobody is joining on this process: surface the crash so it
                # is not silently swallowed.
                env._crashed(self, exc)
            return
        env._active_process = None
        if not isinstance(next_event, Event):
            raise TypeError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            )
        if next_event.callbacks is None:
            # Already processed: resume immediately via a zero-delay
            # shim event.  The shim is pooled per process — by the time
            # this branch can run again the previous shim has left the
            # queue (it is what resumed us), so reuse is safe; the
            # interrupt path cancels and drops a shim that might still
            # be queued.
            shim = self._shim
            if shim is None or shim.callbacks is not None:
                shim = self._shim = Event(env)
            shim._ok = next_event._ok
            shim._value = next_event._value
            shim.callbacks = [self._resume]
            env.schedule(shim, priority=URGENT)
            self._target = shim
        else:
            next_event.callbacks.append(self._resume)
            self._target = next_event

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'dead'}>"


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events: List[Event] = list(events)
        self._count = 0
        for ev in self.events:
            if ev.env is not env:
                raise ValueError("cannot mix events from different environments")
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        if not self.events and self._value is PENDING:
            self.succeed(self._collect())

    def _collect(self) -> dict:
        return {
            ev: ev._value
            for ev in self.events
            if ev._value is not PENDING and ev.callbacks is None
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers once *all* constituent events have been processed.

    Fails immediately (with the first failure) if any constituent fails.
    Value is a dict mapping event -> value for the completed events.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers once *any* constituent event has been processed."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed({event: event._value})
