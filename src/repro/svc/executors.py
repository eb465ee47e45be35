"""Pluggable executor backends — where sweep points actually run.

The runner historically had two hard-wired paths (in-process serial,
``ProcessPoolExecutor`` fan-out).  This module lifts them behind an
:class:`ExecutorBackend` interface and adds a third: a socket server
that hands points to ``repro worker`` processes — on this machine or
any other — over the length-prefixed JSON protocol in
:mod:`repro.svc.wire`.

Every backend speaks one call, :meth:`ExecutorBackend.run`: execute a
batch, yielding ``(point, envelope, attempts)`` as points finish (any
order).

Envelopes are exactly what :func:`repro.runner.worker.execute_point`
returns, whichever process produced them, so figure outputs are
bit-identical across backends — the subsystem's acceptance test.

Failure semantics mirror the historical runner: an exception inside a
point is deterministic and becomes an ``error`` envelope; a *worker
death* (``BrokenProcessPool``, or a socket worker's connection
dropping mid-point) is retried per the :class:`RetryPolicy` before
surfacing as ``crashed``.

CLI spec strings (``--backend``)::

    serial                       in-process, one point at a time
    process[:N]                  process pool with N workers (0 = CPUs)
    socket:HOST:PORT             listen on HOST:PORT for `repro worker`s
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..obs import get as _obs_get
from ..runner.cache import point_key
from ..runner.collect import Collector, for_point, to_wire
from ..runner.point import SweepPoint
from ..runner.retry import RetryPolicy
from ..runner.worker import execute_point, preload
from . import wire

__all__ = [
    "ExecSpec",
    "ExecutorBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "SocketWorkerBackend",
    "make_executor_backend",
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

    def to_wire(self, point: SweepPoint) -> Dict[str, Any]:
        """The JSON-safe subset a socket worker needs for ``point``."""
        return {"timeout": self.timeout,
                "collectors": to_wire(for_point(self.collectors, point))}

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

    backend_name = "?"

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

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.backend_name}>"


class SerialBackend(ExecutorBackend):
    """In-process, strictly sequential — zero overhead, full signal
    support (SIGALRM timeouts work because points run on the main
    thread), and the baseline every other backend must match."""

    backend_name = "serial"

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

    backend_name = "process"

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


# -- socket workers -------------------------------------------------------------


class _Task:
    """One point waiting for (or assigned to) a socket worker."""

    __slots__ = ("point", "attempts", "done_q")

    def __init__(self, point: SweepPoint, done_q: "queue.Queue[PointOutcome]") -> None:
        self.point = point
        self.attempts = 1
        self.done_q = done_q


class SocketWorkerBackend(ExecutorBackend):
    """Listens for ``repro worker`` processes that *pull* points.

    The server never pushes unsolicited work: a worker sends
    ``{"op": "pull"}`` when idle, blocks until a point is available,
    runs it, and replies with the result envelope.  Pull scheduling
    makes heterogeneous workers self-load-balance — a fast host simply
    pulls more often — with no partitioning logic on the server.

    A connection that dies while a point is in flight requeues the
    point (per the retry policy), so a crashed or OOM-killed worker
    host costs one retry, never a lost result.  Workers may connect
    and disconnect at any time; :meth:`wait_for_workers` is a
    convenience barrier for scripts that want N workers before
    sweeping.
    """

    backend_name = "socket"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 backlog: int = 64) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self.host, self.port = self._listener.getsockname()[:2]
        self._tasks: "queue.Queue[_Task]" = queue.Queue()
        self._spec = ExecSpec()
        self._closing = False
        self._lock = threading.Lock()
        self._workers = 0
        self._worker_seq = 0
        self._served = 0
        self._stats_requests = 0
        self._obs = _obs_get()
        self._threads: List[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-svc-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def workers(self) -> int:
        """Currently connected workers."""
        with self._lock:
            return self._workers

    def wait_for_workers(self, n: int, timeout: float = 30.0) -> int:
        deadline = time.monotonic() + timeout
        while self.workers < n and time.monotonic() < deadline:
            time.sleep(0.02)
        return self.workers

    def stats(self) -> Dict[str, Any]:
        """Live server-side counters (what the ``stats`` frame returns)."""
        with self._lock:
            return {
                "workers": self._workers,
                "queued": self._tasks.qsize(),
                "served": self._served,
                "stats_requests": self._stats_requests,
            }

    # -- server side ----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._serve_worker, args=(conn,),
                name="repro-svc-worker-conn", daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _serve_worker(self, conn: socket.socket) -> None:
        with self._lock:
            self._workers += 1
            self._worker_seq += 1
        task: Optional[_Task] = None
        try:
            hello = wire.recv_message(conn)
            if (not hello or hello.get("op") != "hello"
                    or hello.get("version") != wire.PROTOCOL_VERSION):
                return  # not a worker, or one speaking another protocol
            wire.send_message(conn, {"op": "welcome"})
            while not self._closing:
                msg = wire.recv_message(conn)
                if msg is None:
                    return  # clean disconnect while idle
                if msg.get("op") == "stats":
                    with self._lock:
                        self._stats_requests += 1
                    if self._obs.enabled:
                        self._obs.inc("svc.stats_requests")
                    wire.send_message(conn, {"op": "stats",
                                             "stats": self.stats()})
                    continue
                if msg.get("op") != "pull":
                    return
                task = self._next_task()
                if task is None:
                    wire.send_message(conn, {"op": "shutdown"})
                    return
                wire.send_message(conn, {
                    "op": "point",
                    "point": task.point.canonical(),
                    "spec": self._spec.to_wire(task.point),
                })
                reply = wire.recv_message(conn)
                if reply is None or reply.get("op") != "result":
                    raise wire.WireError("worker vanished mid-point")
                task.done_q.put(
                    (task.point, reply["envelope"], task.attempts)
                )
                task = None
                with self._lock:
                    self._served += 1
                if self._obs.enabled:
                    self._obs.inc("svc.points_served")
        except (wire.WireError, OSError):
            pass
        finally:
            if task is not None:
                self._requeue_or_fail(task)
            with self._lock:
                self._workers -= 1
            try:
                conn.close()
            except OSError:
                pass

    def _next_task(self) -> Optional[_Task]:
        """Block (in this connection's thread) until work or shutdown."""
        while not self._closing:
            try:
                return self._tasks.get(timeout=0.1)
            except queue.Empty:
                continue
        return None

    def _requeue_or_fail(self, task: _Task) -> None:
        spec = self._spec
        if spec.retry.should_retry(task.attempts):
            delay = spec.notify_retry(task.point, task.attempts)
            if delay > 0.0:
                time.sleep(delay)
            task.attempts += 1
            self._tasks.put(task)
        else:
            task.done_q.put(
                (task.point, _crashed_envelope(task.point, task.attempts),
                 task.attempts)
            )

    # -- ExecutorBackend ------------------------------------------------------

    def run(
        self, points: Sequence[SweepPoint], spec: ExecSpec
    ) -> Iterator[PointOutcome]:
        self._spec = spec
        done_q: "queue.Queue[PointOutcome]" = queue.Queue()
        for point in points:
            self._tasks.put(_Task(point, done_q))
        for _ in range(len(points)):
            yield done_q.get()

    def close(self) -> None:
        self._closing = True
        try:
            self._listener.close()
        except OSError:
            pass

    def __repr__(self) -> str:
        return f"<SocketWorkerBackend {self.address} ({self.workers} worker(s))>"


# -- factory --------------------------------------------------------------------


def make_executor_backend(
    spec: Union[str, ExecutorBackend, None],
    jobs: int = 1,
) -> ExecutorBackend:
    """Build a backend from a CLI spec string (see module docstring).

    ``None`` derives the backend from ``jobs``: ``jobs == 1`` runs
    in-process and serial, more jobs fan out over a process pool with
    wave-retry crash semantics.
    """
    if spec is None:
        return SerialBackend() if jobs == 1 else ProcessPoolBackend(jobs)
    if isinstance(spec, ExecutorBackend):
        return spec
    text = str(spec)
    if text == "serial":
        return SerialBackend()
    if text == "process":
        return ProcessPoolBackend(jobs)
    if text.startswith("process:"):
        return ProcessPoolBackend(int(text[len("process:"):]))
    if text.startswith("socket:"):
        rest = text[len("socket:"):]
        host, _, port = rest.rpartition(":")
        if not host:
            host, port = "127.0.0.1", rest
        return SocketWorkerBackend(host, int(port))
    raise ValueError(
        f"unknown executor backend spec {text!r} "
        "(expected serial, process[:N] or socket:HOST:PORT)"
    )
