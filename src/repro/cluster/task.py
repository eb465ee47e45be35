"""Simulated OS tasks: the execution contexts of ranks and threads.

A :class:`Task` is one schedulable entity (an MPI process or an OpenMP
thread) bound to a core of a node.  It carries the machinery the rest of
the stack builds on:

* **Local compute accrual** — ``charge(dt)`` adds to a pending-time
  accumulator without touching the event queue; the accumulator is
  *flushed* (turned into engine timeouts) at interaction points.  This is
  the classic lookahead optimisation: a rank executing millions of
  instrumented function calls costs O(interactions) engine events, not
  O(calls).  ``task.now`` (= engine time + pending) is the clock trace
  timestamps are taken from, so timestamps stay consistent because every
  cross-task interaction flushes first.

* **Suspension** — DPCL-style suspend/resume via a :class:`Gate`.  A
  suspend request closes the gate; the task parks at its next flush or
  checkpoint (within one compute quantum), mirroring how ptrace stops
  land at kernel entry.  Suspension intervals are reported to an optional
  observer so the timeline view can show the paper's "region of
  inactivity".
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from ..simt import Environment, Event, Gate, Process, Timeout
from .machine import MachineSpec
from .node import Node

__all__ = ["Task", "TaskObserver"]


class TaskObserver:
    """Interface for observers of task lifecycle events (e.g. tracing)."""

    def on_suspended(self, task: "Task", start: float) -> None:
        """Called when the task actually parks on its suspend gate."""

    def on_resumed(self, task: "Task", start: float, end: float) -> None:
        """Called when the task leaves the gate; [start, end] was inactive."""


class Task:
    """One simulated OS task bound to a core of ``node``."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        name: str,
        spec: MachineSpec,
        bind_core: bool = True,
    ) -> None:
        self.env = env
        self.node = node
        self.name = name
        self.spec = spec
        self._pending = 0.0
        self._gate = Gate(env, open_=True, name=f"{name}.suspend")
        self._gate.on_park = lambda _gate, _n: self._notify_stop_watchers()
        #: Outstanding suspend requests; the gate is closed exactly while
        #: this is nonzero, so hot paths test it instead of the gate.
        self._suspend_requests = 0
        self._blocked_depth = 0
        self._stop_watchers: List[Event] = []
        self.proc: Optional[Process] = None
        self.observers: List[TaskObserver] = []
        #: Suspension intervals actually experienced: list of (start, end).
        self.suspensions: List[Tuple[float, float]] = []
        #: Total simulated seconds of useful compute charged.
        self.compute_time = 0.0
        #: Multiplier applied to every charge — a fault injector models a
        #: degraded core / noisy neighbour by setting this above 1.0.
        self.slowdown = 1.0
        #: When a sampling profiler is attached (ephemeral
        #: instrumentation), the executor accumulates per-function time
        #: here: {function name: seconds}.  None = sampling off (keeps
        #: the call hot path free of the bookkeeping).
        self.sample_accum = None
        self._bind_core = bind_core
        self._core_held = False
        node.register_task(self)

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> float:
        """This task's local clock: engine time plus unflushed compute."""
        return self.env.now + self._pending

    @property
    def pending(self) -> float:
        """Accrued compute time not yet flushed to the engine."""
        return self._pending

    def charge(self, dt: float) -> None:
        """Accrue ``dt`` seconds of local compute (no engine interaction)."""
        if dt < 0:
            raise ValueError(f"negative charge {dt}")
        if self.slowdown != 1.0:
            dt *= self.slowdown
        self._pending += dt
        self.compute_time += dt

    def offset_clock(self, dt: float) -> None:
        """Advance the local clock without accounting it as compute
        (e.g. to align a forked thread with its master's clock)."""
        if dt < 0:
            raise ValueError(f"negative offset {dt}")
        self._pending += dt

    # -- lifecycle ------------------------------------------------------------

    def start(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Spawn this task's body as a simulation process.

        Acquires (and holds for the task's lifetime) a core slot when
        ``bind_core`` — strict binding, the launcher is responsible for
        never oversubscribing a node.
        """
        if self.proc is not None:
            raise RuntimeError(f"task {self.name!r} already started")
        self.proc = self.env.process(
            self._run(generator), name=name or self.name
        )
        return self.proc

    def _run(self, generator: Generator) -> Generator:
        if self._bind_core:
            if self.node.free_cores == 0:
                raise RuntimeError(
                    f"node {self.node.hostname} oversubscribed launching "
                    f"{self.name!r} ({self.node.n_cores} cores all busy)"
                )
            yield self.node.cores.request()
            self._core_held = True
        try:
            result = yield from generator
            yield from self.flush()
            return result
        finally:
            if self._core_held:
                self.node.cores.release()
                self._core_held = False
            self.node.unregister_task(self)
            # The task is gone: anything waiting for it to stop is done.
            self._notify_stop_watchers_final()

    # -- compute & flushing ---------------------------------------------------

    def flush(self) -> Generator:
        """Turn pending compute into engine time, quantum by quantum.

        Parks on the suspend gate between quanta, so a suspend request
        takes effect within one quantum of simulated time.
        """
        quantum = self.spec.compute_quantum
        env = self.env
        while self._pending > 0.0:
            if self._suspend_requests:
                yield from self._park()
            dt = self._pending
            if 0 < quantum < dt:
                dt = quantum
            self._pending -= dt
            yield Timeout(env, dt)
        if self._suspend_requests:
            yield from self._park()

    @property
    def settled(self) -> bool:
        """True when :meth:`flush` and :meth:`checkpoint` would return at
        once: no pending compute and no suspend request.  Hot callers
        test this instead of entering them."""
        return self._pending <= 0.0 and not self._suspend_requests

    def compute(self, dt: float) -> Generator:
        """Charge and immediately flush ``dt`` seconds of compute."""
        self.charge(dt)
        yield from self.flush()

    def checkpoint(self) -> Generator:
        """Park if a suspend is pending; otherwise free of engine events.

        Called by blocking operations (MPI recv, barriers) after they
        complete, so a task suspended while blocked does not run on.
        """
        if self._suspend_requests:
            yield from self._park()

    def blocked_wait(self, event: Event) -> Generator:
        """Wait on a runtime event, counting as *stopped* if suspended.

        A task blocked inside the runtime (message receive, barrier,
        work queue) executes no application instructions, so a blocking
        DPCL suspend may treat it as stopped; the checkpoint on wake
        guarantees it parks before touching application code again.
        """
        self._blocked_depth += 1
        self._notify_stop_watchers()
        try:
            value = yield event
        finally:
            self._blocked_depth -= 1
        if self._suspend_requests:  # inlined checkpoint()
            yield from self._park()
        return value

    def _park(self) -> Generator:
        start = self.env.now
        for obs in self.observers:
            obs.on_suspended(self, start)
        yield self._gate.wait()
        end = self.env.now
        self.suspensions.append((start, end))
        for obs in self.observers:
            obs.on_resumed(self, start, end)

    # -- suspension (called by DPCL daemons) -----------------------------------

    @property
    def is_suspend_requested(self) -> bool:
        return self._suspend_requests > 0

    @property
    def is_parked(self) -> bool:
        """True if the task is currently stopped on its suspend gate."""
        return self._gate.parked > 0

    def request_suspend(self) -> None:
        """Ask the task to stop at its next checkpoint (nestable)."""
        self._suspend_requests += 1
        self._gate.close()
        self._notify_stop_watchers()

    def when_parked(self) -> Event:
        """Event that triggers once the task has actually stopped."""
        return self._gate.when_parked(1)

    @property
    def is_stopped(self) -> bool:
        """Parked, dead, or suspend-requested while runtime-blocked."""
        if self.proc is not None and not self.proc.is_alive:
            return True
        if self.is_parked:
            return True
        return self._suspend_requests > 0 and self._blocked_depth > 0

    def when_stopped(self) -> Event:
        """Event triggering once :attr:`is_stopped` holds (for blocking
        suspends: the target is guaranteed to execute no application
        code until resumed)."""
        event = Event(self.env)
        if self.is_stopped:
            event.succeed()
        else:
            self._stop_watchers.append(event)
        return event

    def _notify_stop_watchers(self) -> None:
        if self._stop_watchers and self.is_stopped:
            self._notify_stop_watchers_final()

    def _notify_stop_watchers_final(self) -> None:
        watchers, self._stop_watchers = self._stop_watchers, []
        for event in watchers:
            event.succeed()

    def resume(self) -> None:
        """Drop one suspend request; reopens the gate at zero requests."""
        if self._suspend_requests <= 0:
            raise RuntimeError(f"resume of non-suspended task {self.name!r}")
        self._suspend_requests -= 1
        if self._suspend_requests == 0:
            self._gate.open()

    # -- diagnostics ------------------------------------------------------------

    @property
    def total_suspended_time(self) -> float:
        return sum(end - start for start, end in self.suspensions)

    def __repr__(self) -> str:
        return (
            f"<Task {self.name} on {self.node.hostname} now={self.now:.6f} "
            f"pending={self._pending:.6f}>"
        )
