"""Where sweep points run: in-process, or on a local process pool.

:class:`SerialBackend` runs a batch on the calling thread;
:class:`ProcessPoolBackend` fans it out over one long-lived
``ProcessPoolExecutor``.  Both speak one call,
:meth:`ExecutorBackend.run`: execute a batch, yielding ``(point,
envelope, attempts)`` as points finish (any order).

Envelopes are exactly what :func:`repro.runner.worker.execute_point`
returns, whichever process produced them, so figure outputs are
bit-identical under either backend.

Failure semantics: an exception inside a point is deterministic and
becomes an ``error`` envelope; a *worker death* (``BrokenProcessPool``)
is retried per the :class:`RetryPolicy` before surfacing as
``crashed``.

The pool looks up this module's ``execute_point`` at each submit, so a
caller that replaces it here (``perfbench``'s profiled mode wraps it to
profile each forked worker) reaches every pool worker.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..runner.cache import point_key
from ..runner.collect import Collector, for_point
from ..runner.point import SweepPoint
from ..runner.retry import RetryPolicy
from ..runner.worker import execute_point, preload

__all__ = [
    "ExecSpec",
    "ExecutorBackend",
    "SerialBackend",
    "ProcessPoolBackend",
]

#: (point, envelope, attempts) — one finished point.
PointOutcome = Tuple[SweepPoint, Dict[str, Any], int]


@dataclass
class ExecSpec:
    """Everything a backend needs to run points on the runner's behalf."""

    timeout: Optional[float] = None
    #: What observes each point (repro.runner.collect); attachments
    #: ride the envelope under "attachments", never the cache.
    collectors: Sequence[Collector] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Called as (label, key, next_attempt, delay) when a crashed point
    #: is granted another attempt — feeds retry telemetry.
    on_retry: Optional[Callable[[str, str, int, float], None]] = None

    def worker_args(self, point: SweepPoint) -> Tuple[Any, ...]:
        """Positional args of :func:`execute_point` for ``point``."""
        return (point, self.timeout, for_point(self.collectors, point))

    def notify_retry(self, point: SweepPoint, attempts: int) -> float:
        """Report a granted retry; returns the backoff delay to apply."""
        key = point_key(point)
        delay = self.retry.delay(attempts, key)
        if self.on_retry is not None:
            self.on_retry(point.label, key, attempts + 1, delay)
        return delay


def _crashed_envelope(point: SweepPoint, attempts: int) -> Dict[str, Any]:
    return {
        "status": "crashed",
        "error": f"{point.label}: worker process died ({attempts} attempt(s))",
        "wall_time": 0.0,
    }


class ExecutorBackend:
    """Base class: subclasses implement :meth:`run`."""

    def run(
        self, points: Sequence[SweepPoint], spec: ExecSpec
    ) -> Iterator[PointOutcome]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SerialBackend(ExecutorBackend):
    """In-process, strictly sequential — zero overhead, full signal
    support (SIGALRM timeouts work because points run on the main
    thread), and the baseline the process pool must match."""

    def run(
        self, points: Sequence[SweepPoint], spec: ExecSpec
    ) -> Iterator[PointOutcome]:
        for point in points:
            yield (point, execute_point(*spec.worker_args(point)), 1)


class ProcessPoolBackend(ExecutorBackend):
    """A ``ProcessPoolExecutor`` fan-out that lives as long as the backend.

    One pool serves every batch: it is built on the first batch, sized
    at ``min(jobs, len(batch))``, rebuilt larger only when a later batch
    needs more workers, and shut down by :meth:`close`.  A batch is
    submitted largest ``procs`` first (stable over grid order), so the
    longest points start early and the small ones fill the gaps.

    Runs keep the historical *wave* semantics: a ``BrokenProcessPool``
    poisons every in-flight point (the culprit is not identifiable from
    the parent), so the dead pool is shut down and the whole wave
    re-runs on a fresh one until each point's retry budget is spent.
    A pool found broken before a batch is submitted (a worker died
    while it sat idle) is replaced without charging any point a retry.

    Workers fork from the parent when the pool is built, so they do
    not see in-process switches (e.g. :func:`repro.program.set_batching`)
    flipped afterwards.  The parent calls
    :func:`~repro.runner.worker.preload` first, so each worker inherits
    numpy instead of importing it.
    """

    def __init__(self, jobs: int = 0) -> None:
        from ..runner.runner import default_jobs

        self.jobs = jobs if jobs > 0 else default_jobs()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers = 0

    def _pool_for(self, batch_size: int) -> ProcessPoolExecutor:
        """The live pool, (re)built when missing or too small."""
        workers = min(self.jobs, batch_size)
        if self._pool is None or self._workers < workers:
            self.close()
            preload()
            self._pool = ProcessPoolExecutor(max_workers=workers)
            self._workers = workers
        return self._pool

    def _submit(
        self, batch: List[SweepPoint], spec: ExecSpec
    ) -> Dict[Future, SweepPoint]:
        pool = self._pool_for(len(batch))
        return {pool.submit(execute_point, *spec.worker_args(p)): p for p in batch}

    def run(
        self, points: Sequence[SweepPoint], spec: ExecSpec
    ) -> Iterator[PointOutcome]:
        pending: Dict[SweepPoint, int] = {
            p: 1 for p in sorted(points, key=lambda p: -p.procs)
        }
        while pending:
            batch = list(pending)
            crashed: List[SweepPoint] = []
            try:
                futures = self._submit(batch, spec)
            except BrokenProcessPool:
                # A worker died while the pool sat idle between batches,
                # or an abandoned run left a crash wave's pool behind.
                self.close()
                futures = self._submit(batch, spec)
            try:
                for fut in as_completed(futures):
                    p = futures[fut]
                    try:
                        envelope = fut.result()
                    except BrokenProcessPool:
                        crashed.append(p)
                        continue
                    except Exception as exc:  # transport-level failure
                        envelope = {
                            "status": "error",
                            "error": f"{type(exc).__name__}: {exc}",
                            "wall_time": 0.0,
                        }
                    yield (p, envelope, pending.pop(p))
            finally:
                # An abandoned run leaves no queued points behind.
                for fut in futures:
                    fut.cancel()
            if crashed:
                self.close()
            wave_delay = 0.0
            for p in crashed:
                if not spec.retry.should_retry(pending[p]):
                    yield (p, _crashed_envelope(p, pending[p]), pending.pop(p))
                else:
                    wave_delay = max(wave_delay, spec.notify_retry(p, pending[p]))
                    pending[p] += 1
            if pending and wave_delay > 0.0:
                # One sleep per crash wave: the whole wave re-runs on a
                # fresh pool, so per-point sleeps would only serialize.
                time.sleep(wave_delay)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._workers = 0
