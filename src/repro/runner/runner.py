"""The sweep execution engine.

:class:`SweepRunner` takes a grid of :class:`SweepPoint`s and produces
one :class:`PointResult` per distinct point:

1. **Cache probe** — every point is first looked up in the
   content-addressed :class:`~repro.runner.cache.ResultCache` (if one
   is configured); hits never touch a worker.
2. **Fan-out** — misses run on an executor backend
   (:mod:`repro.svc.executors`): in-process serial for ``jobs=1``, a
   ``ProcessPoolExecutor`` with ``jobs`` workers otherwise (one pool
   for every grid the runner runs, until :meth:`SweepRunner.close`).
   The simulations are deterministic, so the pool returns
   bit-identical floats to the serial path — that equivalence is the
   acceptance test of the whole subsystem.
3. **Failure containment** — a point that raises or exceeds the
   per-point ``timeout`` becomes a failed :class:`PointResult`; a point
   whose *worker process dies* (``BrokenProcessPool``) is retried once
   on a fresh pool before being reported as ``crashed``.  One bad point
   never takes down the sweep.
4. **Telemetry** — progress is emitted as JSON lines through
   :class:`~repro.runner.telemetry.SweepTelemetry` (points done /
   cached / failed, per-point sim time, final cache hit rate).
5. **Attachments** — each :mod:`~repro.runner.collect` collector's
   per-point document rides the envelope and is merged into the
   collector in grid order once the sweep is done.

:meth:`SweepRunner.run_grid` is the strict variant the figure harness
uses: it raises :class:`SweepError` unless every point succeeded, and
returns payloads aligned with the input order (duplicates allowed —
they are computed once).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Sequence, Union

from ..obs import get as _obs_get
from .cache import ResultCache, point_key
from .collect import Collector, MetricsCollector
from .point import SweepPoint
from .retry import RetryPolicy
from .telemetry import SweepTelemetry

__all__ = ["SweepRunner", "PointResult", "SweepError", "default_jobs"]


def default_jobs() -> int:
    """A worker count matched to the CPUs this process may run on (for
    ``--jobs 0``): its affinity mask where the OS has one, else every
    CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


@dataclass
class PointResult:
    """Outcome of one sweep point."""

    point: SweepPoint
    #: "ok" | "error" | "timeout" | "crashed" | "diverged"
    status: str
    payload: Optional[Dict[str, Any]] = None
    cached: bool = False
    wall_time: float = 0.0
    attempts: int = 1
    error: Optional[str] = None
    #: Structured divergence report (status == "diverged" only): the
    #: first decision where the run departed from its replay log.
    divergence: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def sim_time(self) -> Optional[float]:
        """Simulated seconds the point reported (``payload["time"]``)."""
        if self.payload is None:
            return None
        value = self.payload.get("time")
        return float(value) if isinstance(value, (int, float)) else None


class SweepError(RuntimeError):
    """A strict sweep had failing points."""

    def __init__(self, failures: List[PointResult]) -> None:
        self.failures = failures
        heads = "; ".join(
            f"{r.point.label} [{r.status}]" for r in failures[:3]
        )
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        detail = ""
        if failures and failures[0].error:
            first = failures[0].error.strip().splitlines()[-1]
            detail = f"\nfirst error: {first}"
        super().__init__(
            f"{len(failures)} sweep point(s) failed: {heads}{more}{detail}"
        )


class SweepRunner:
    """Parallel, cached executor for experiment grids.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (the default) executes in-process and
        ``0`` means one worker per CPU.
    cache:
        A :class:`ResultCache`, a directory path to open one at, or
        None to disable caching.
    timeout:
        Per-point wall-clock budget in seconds (None = unlimited).
    retry:
        The crash-retry :class:`RetryPolicy` (attempt budget,
        exponential backoff, deterministic per-point jitter); the
        default grants one retry.
    telemetry:
        A :class:`SweepTelemetry`, or a text stream to emit JSON lines
        to, or None for counters-only telemetry.
    collectors:
        :class:`~repro.runner.collect.Collector` objects that observe
        every computed point.  Their per-point attachments ride the worker
        envelope — never the cached payload, so cache entries and
        figures are unaffected — and are merged into each collector,
        in grid order, when :meth:`run` returns.  Cached points
        contribute nothing (no simulation ran).  A
        :class:`~repro.runner.collect.ReplayCollector` makes a point
        whose run departs from its recorded order log come back
        ``"diverged"``, with the first divergent decision in
        :attr:`PointResult.divergence`.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Union[ResultCache, str, Path, None] = None,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        telemetry: Union[SweepTelemetry, IO[str], None] = None,
        collectors: Sequence[Collector] = (),
    ) -> None:
        if jobs < 0:
            raise ValueError("jobs must be >= 0")
        self.jobs = jobs if jobs > 0 else default_jobs()
        if isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        self.cache = cache
        #: The executor backend, built on the first grid with misses and
        #: kept, with its pool, until :meth:`close`.
        self.executor = None
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        if telemetry is None or isinstance(telemetry, SweepTelemetry):
            self.telemetry = telemetry or SweepTelemetry()
        else:
            self.telemetry = SweepTelemetry(stream=telemetry)
        self.collectors = list(collectors)
        self._obs = _obs_get()

    # -- public API -----------------------------------------------------------

    def run(self, points: Sequence[SweepPoint]) -> Dict[SweepPoint, PointResult]:
        """Execute a grid; returns one result per *distinct* point."""
        started = time.perf_counter()
        unique = list(dict.fromkeys(points))
        # Each distinct point is keyed once: the cache probe, the cache
        # put and the telemetry event all reuse this digest.
        keys = {p: point_key(p) for p in unique}
        results: Dict[SweepPoint, PointResult] = {}
        corrupt_base = getattr(self.cache, "corrupt_discards", 0)

        cached: List[PointResult] = []
        if self.cache is not None:
            for p in unique:
                entry = self.cache.get(keys[p])
                if entry is not None:
                    r = PointResult(p, "ok", payload=entry["payload"],
                                    cached=True, attempts=0)
                    results[p] = r
                    cached.append(r)

        self.telemetry.sweep_start(
            total=len(unique), cached=len(cached), jobs=self.jobs,
            started=started,
        )
        for r in cached:
            self._report(r, keys[r.point])

        missing = [p for p in unique if p not in results]
        attachments: Dict[SweepPoint, Dict[str, Any]] = {}
        if missing:
            self._execute(missing, keys, results, attachments)
        # Fold attachments in grid order, not completion order, so the
        # merged documents (key order, float sums) are the same under
        # every executor.
        for p in unique:
            docs = attachments.get(p)
            if docs:
                for collector in self.collectors:
                    doc = docs.get(collector.name)
                    if doc:
                        collector.merge(p.label, doc)
        self.telemetry.corrupt_discards = (
            getattr(self.cache, "corrupt_discards", 0) - corrupt_base
        )
        self.telemetry.sweep_end()
        return results

    def run_grid(self, points: Sequence[SweepPoint]) -> List[Dict[str, Any]]:
        """Strict run: every point must succeed.

        Returns payloads aligned with ``points`` (duplicates share one
        execution); raises :class:`SweepError` listing the failures
        otherwise.
        """
        results = self.run(points)
        failures = [r for r in results.values() if not r.ok]
        if failures:
            raise SweepError(failures)
        return [results[p].payload for p in points]  # type: ignore[misc]

    def close(self) -> None:
        """Shut down the executor's worker pool, if one was started."""
        if self.executor is not None:
            self.executor.close()

    # -- execution paths ------------------------------------------------------

    def _exec_spec(self):
        """The :class:`repro.svc.executors.ExecSpec` for this sweep."""
        from ..svc.executors import ExecSpec

        return ExecSpec(
            timeout=self.timeout,
            collectors=self.collectors,
            retry=self.retry,
            on_retry=self._on_retry,
        )

    def _backend(self):
        """The executor backend: serial for ``jobs == 1``, else one
        process pool (imported lazily — :mod:`repro.svc` builds on this
        module, and a fully cached run needs neither)."""
        if self.executor is None:
            from ..svc.executors import ProcessPoolBackend, SerialBackend

            self.executor = (SerialBackend() if self.jobs == 1
                             else ProcessPoolBackend(self.jobs))
        return self.executor

    def _on_retry(self, label: str, key: str, attempt: int, delay: float) -> None:
        self.telemetry.retry_scheduled(
            label=label, key=key, attempt=attempt, delay=delay
        )
        if self._obs.enabled:
            self._obs.inc("runner.retries")

    def _execute(
        self,
        points: List[SweepPoint],
        keys: Dict[SweepPoint, str],
        results: Dict[SweepPoint, PointResult],
        attachments: Dict[SweepPoint, Dict[str, Any]],
    ) -> None:
        backend = self._backend()
        for point, envelope, attempts in backend.run(points, self._exec_spec()):
            results[point] = self._finish(point, keys[point], envelope, attempts)
            if "attachments" in envelope:
                attachments[point] = envelope["attachments"]

    # -- bookkeeping ----------------------------------------------------------

    def _finish(
        self,
        point: SweepPoint,
        key: str,
        envelope: Dict[str, Any],
        attempts: int,
    ) -> PointResult:
        status = envelope.get("status", "error")
        result = PointResult(
            point=point,
            status=status,
            payload=envelope.get("payload"),
            cached=False,
            wall_time=float(envelope.get("wall_time", 0.0)),
            attempts=attempts,
            error=envelope.get("error"),
            divergence=envelope.get("divergence"),
        )
        if result.ok and self.cache is not None:
            try:
                self.cache.put(
                    key, point, result.payload,
                    meta={"wall_time": result.wall_time},
                )
            except OSError as exc:
                # A full/read-only/vanished cache directory must not
                # fail the sweep: the result is kept in memory and the
                # entry simply stays uncached.
                self.telemetry.warning(
                    "cache write failed; continuing uncached",
                    label=point.label, error=f"{type(exc).__name__}: {exc}",
                )
                if self._obs.enabled:
                    self._obs.inc("runner.cache_write_errors")
        docs = envelope.get("attachments") or {}
        self._report(result, key, obs_snapshot=docs.get(MetricsCollector.name))
        return result

    def _report(
        self,
        result: PointResult,
        key: str,
        obs_snapshot: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.telemetry.point_finished(
            label=result.point.label,
            key=key,
            status=result.status,
            cached=result.cached,
            wall_time=result.wall_time,
            sim_time=result.sim_time,
            attempts=result.attempts,
            obs=obs_snapshot,
        )
