"""Worker-side execution of sweep points.

:func:`execute_point` is the function the runner submits to its
:class:`~concurrent.futures.ProcessPoolExecutor`; it must stay a
module-level callable so it pickles by reference.  It never raises:
every outcome — success, application error, per-point timeout — comes
back as a JSON-safe *envelope* dict so the parent can cache, report and
aggregate uniformly.  The only thing that escapes an envelope is a
worker-process death (``os._exit``, OOM-kill, segfault analog), which
surfaces in the parent as ``BrokenProcessPool`` and drives the
retry-once semantics in :mod:`repro.runner.runner`.

Per-point timeouts use ``SIGALRM``: the pool's fork-started workers run
tasks on their main thread, so the alarm interrupts even a
simulation-bound point.  Off the main thread (e.g. a threaded caller
using the serial path) the timeout is skipped rather than mis-armed.

The simulator is imported lazily: the CLI and cached regenerations
import this module but never run a point, so they never load it (nor
numpy, which no ``repro`` module imports at module scope).
:func:`preload` loads everything a point runs before the point's clock
starts, and before a pool forks so every worker inherits it.  Only a
point with a timeout loads :mod:`signal`, and only a failing one
:mod:`traceback`.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Any, Dict, Optional, Sequence

from ..replay.errors import DivergenceError
from .collect import Collector
from .point import SweepPoint

__all__ = ["execute_point", "preload", "PointTimeout"]


class PointTimeout(Exception):
    """Raised inside a worker when a point exceeds its time budget."""


def preload() -> None:
    """Import everything a simulated point runs but the CLI does not.

    That is numpy with ``numpy.random`` (numpy 2 loads it on first
    use), the simulations :func:`_dispatch` calls, which bring the
    simulator and its :mod:`dataclasses` with them, and the sinks the
    collectors install into the simulator's tap.  Called before a
    point's wall time and ``SIGALRM`` budget start, so a process's first
    point is not charged the imports, and before a process pool forks,
    so every worker inherits them.
    """
    import numpy.random  # noqa: F401

    from ..dynprof import policies  # noqa: F401
    from ..experiments import measure  # noqa: F401
    from ..obs import registry, timeseries, trace  # noqa: F401
    from ..replay import hooks  # noqa: F401


def _point_faults(point: SweepPoint):
    """Parse a point's optional ``faults`` param into a FaultPlan."""
    doc = point.param("faults")
    if doc is None:
        return None
    from ..faults import FaultPlan

    return FaultPlan.from_json(doc)


def _dispatch(point: SweepPoint) -> Dict[str, Any]:
    """Run the simulation a point describes; returns the raw payload."""
    if point.kind == "policy":
        from ..apps import get_app
        from ..dynprof.policies import run_policy

        result = run_policy(
            get_app(point.app), point.policy, point.procs,
            scale=point.scale, machine=point.machine, seed=point.seed,
            faults=_point_faults(point),
        )
        return result.to_dict()
    if point.kind == "confsync":
        from ..experiments.measure import measure_confsync

        elapsed = measure_confsync(
            point.procs, machine=point.machine,
            change=bool(point.param("change", False)),
            stats=bool(point.param("stats", False)),
            reps=int(point.param("reps", 16)),
            seed=point.seed,
        )
        return {"time": elapsed}
    if point.kind == "instrument":
        plan = _point_faults(point)
        if plan is not None:
            from ..experiments.measure import measure_create_and_instrument_detail

            return measure_create_and_instrument_detail(
                point.app, point.procs, point.machine,
                scale=point.scale, seed=point.seed, faults=plan,
            )
        from ..experiments.measure import measure_create_and_instrument

        elapsed = measure_create_and_instrument(
            point.app, point.procs, point.machine,
            scale=point.scale, seed=point.seed,
        )
        return {"time": elapsed}
    if point.kind == "selftest":
        return _selftest(point)
    raise ValueError(f"unknown point kind {point.kind!r}")


def _selftest(point: SweepPoint) -> Dict[str, Any]:
    """Worker behaviours the runner's own tests need to provoke."""
    mode = point.param("mode", "echo")
    if mode == "echo":
        return {"time": 0.0, "echo": point.param("value")}
    if mode == "sleep":
        time.sleep(float(point.param("seconds", 60.0)))
        return {"time": 0.0}
    if mode == "raise":
        raise RuntimeError("selftest: deliberate failure")
    if mode == "crash":
        os._exit(17)
    if mode == "crash_once":
        # Dies on the first attempt, succeeds on the retry: the marker
        # file records that the crash already happened.
        marker = str(point.param("marker"))
        if os.path.exists(marker):
            return {"time": 0.0, "retried": True}
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(17)
    raise ValueError(f"unknown selftest mode {mode!r}")


def execute_point(
    point: SweepPoint,
    timeout: Optional[float] = None,
    collectors: Sequence[Collector] = (),
) -> Dict[str, Any]:
    """Run one point under an optional wall-clock budget.

    Returns an envelope: ``{"status": "ok", "payload": ..., "wall_time"}``
    on success, or ``{"status": "timeout"|"error", "error": ...,
    "wall_time"}`` otherwise.  Each of ``collectors``
    (:mod:`repro.runner.collect`) observes the run, entered in rank
    order; the envelope then carries ``"attachments"``, a ``name ->
    snapshot`` map (partial on timeout/error) outside the cached
    payload, so cache entries stay identical with or without
    observation.  A :class:`~repro.runner.collect.ReplayCollector`
    whose log departs from the run yields a ``"diverged"`` envelope
    with the structured report under ``"divergence"``.
    """
    preload()
    use_alarm = (
        timeout is not None
        and timeout > 0
        and threading.current_thread() is threading.main_thread()
    )
    if use_alarm:
        import signal
    start = time.perf_counter()
    previous_handler: Any = None
    succeeded = False
    try:
        if use_alarm:
            def _on_alarm(signum: int, frame: Any) -> None:
                raise PointTimeout

            previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout)
        handles: Dict[str, Any] = {}
        try:
            with contextlib.ExitStack() as stack:
                for collector in sorted(collectors, key=lambda c: c.rank):
                    handles[collector.name] = stack.enter_context(
                        collector.open(point))
                payload = _dispatch(point)
            envelope = {
                "status": "ok",
                "payload": payload,
                "wall_time": time.perf_counter() - start,
            }
            succeeded = True
        except PointTimeout:
            envelope = {
                "status": "timeout",
                "error": f"{point.label}: exceeded {timeout:g}s budget",
                "wall_time": time.perf_counter() - start,
            }
        except DivergenceError as exc:
            envelope = {
                "status": "diverged",
                "error": f"{point.label}: {exc}",
                "divergence": exc.to_dict(),
                "wall_time": time.perf_counter() - start,
            }
        except Exception:
            import traceback

            envelope = {
                "status": "error",
                "error": traceback.format_exc(limit=20),
                "wall_time": time.perf_counter() - start,
            }
        if handles:
            # Partial on timeout/error — still useful for diagnosis.
            envelope["attachments"] = {
                name: handle.snapshot() for name, handle in handles.items()
            }
        return envelope
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)
            if not succeeded:
                # A point that timed out, diverged or raised abandons a
                # suspended simulation whose generators sit in reference
                # cycles.  Close them now, with the alarm disarmed: left
                # to the cyclic GC, their cleanup may run under the next
                # point's alarm, which then fires inside it.
                import gc

                gc.collect()
