"""``repro worker`` — a pull-based sweep worker for other hosts.

One worker process connects to a
:class:`~repro.svc.executors.SocketWorkerBackend` (the runner's
``--backend socket:HOST:PORT``), then loops: *pull* a point, run it
with the same :func:`~repro.runner.worker.execute_point` every other
backend uses, send the envelope back.  Points arrive as their
canonical JSON (rebuilt via :meth:`SweepPoint.from_canonical`), so the
worker needs nothing but the ``repro`` package — no shared filesystem,
no preloaded grid.

Points run on the worker's main thread, so per-point ``SIGALRM``
timeouts work exactly as they do under the process pool.  A worker
that loses its server (network blip, sweep finished) exits by default,
or keeps retrying the connection with ``--reconnect``.

``SIGINT``/``SIGTERM`` shut the worker down *gracefully*: a signal
that lands while a point is executing lets the point finish and its
envelope reach the server (work already performed is never discarded);
a signal that lands while the worker is idle — blocked in a pull,
redial or backoff sleep — interrupts it immediately.  Either way the
worker exits 0 with its usual summary line.
"""

from __future__ import annotations

import signal
import socket
import sys
import time
from typing import List, Optional

from ..runner import collect
from ..runner.point import SweepPoint
from ..runner.worker import execute_point
from . import wire

__all__ = ["run_worker", "worker_main", "fetch_stats", "StopFlag"]

_HELLO = {"op": "hello", "version": wire.PROTOCOL_VERSION}


class StopFlag:
    """Cooperative shutdown state shared with the signal handlers.

    ``requested`` flips once a shutdown signal arrives; the handler
    additionally interrupts the main thread (``KeyboardInterrupt``)
    only while ``interruptible`` is True — i.e. while the worker is
    idle.  During point execution the flag alone is set, so the point
    runs to completion and its result is delivered before exit.
    """

    __slots__ = ("requested", "interruptible")

    def __init__(self) -> None:
        self.requested = False
        self.interruptible = True


def fetch_stats(
    host: str, port: int, connect_timeout: float = 10.0
) -> dict:
    """Ask a running socket backend for its live server-side counters.

    Speaks the same hello/welcome handshake as a worker, then a single
    ``stats`` frame; returns the server's stats dict (workers, queued,
    served, stats_requests).  Used by monitoring scripts that want the
    sweep server's state without joining it as a worker.
    """
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    try:
        wire.send_message(sock, _HELLO)
        welcome = wire.recv_message(sock)
        if not welcome or welcome.get("op") != "welcome":
            raise wire.WireError("server did not welcome us")
        wire.send_message(sock, {"op": "stats"})
        reply = wire.recv_message(sock)
        if not reply or reply.get("op") != "stats":
            raise wire.WireError("server did not answer the stats frame")
        return reply["stats"]
    finally:
        try:
            sock.close()
        except OSError:
            pass


def _serve_connection(
    sock: socket.socket, max_points: Optional[int], tally: List[int],
    stop: Optional[StopFlag] = None,
) -> int:
    """Pull/run/reply until shutdown or EOF; returns points executed.

    Every executed point is also added to ``tally[0]`` *immediately*,
    so the caller's count survives a connection that dies on a later
    frame — a server that exits without the closing shutdown handshake
    (sweep done, process gone) must not erase work already performed.
    """
    wire.send_message(sock, _HELLO)
    welcome = wire.recv_message(sock)
    if not welcome or welcome.get("op") != "welcome":
        raise wire.WireError("server did not welcome us")
    done = 0
    while max_points is None or done < max_points:
        if stop is not None and stop.requested:
            break
        wire.send_message(sock, {"op": "pull"})
        msg = wire.recv_message(sock)
        if msg is None or msg.get("op") == "shutdown":
            break
        if msg.get("op") != "point":
            raise wire.WireError(f"unexpected server message {msg.get('op')!r}")
        point = SweepPoint.from_canonical(msg["point"])
        spec = msg.get("spec") or {}
        try:
            collectors = collect.from_wire(spec.get("collectors", []))
        except (ValueError, TypeError, AttributeError) as exc:
            raise wire.WireError(f"bad spec frame: {exc}") from None
        if stop is not None:
            # The point must run to completion and its envelope must
            # reach the server even if a shutdown signal lands now.
            stop.interruptible = False
        try:
            envelope = execute_point(point, spec.get("timeout"), collectors)
            wire.send_message(sock, {"op": "result", "envelope": envelope})
        finally:
            if stop is not None:
                stop.interruptible = True
        done += 1
        tally[0] += 1
    return done


def run_worker(
    host: str,
    port: int,
    max_points: Optional[int] = None,
    reconnect: bool = False,
    reconnect_delay: float = 1.0,
    connect_timeout: float = 10.0,
    stop: Optional[StopFlag] = None,
) -> int:
    """Serve one server until it goes away; returns points executed.

    With ``reconnect`` the worker survives server restarts (it keeps
    dialing until the server answers again), which is the deployment
    mode for long-lived worker hosts.  With ``stop`` (a
    :class:`StopFlag`, typically driven by the signal handlers
    :func:`worker_main` installs) the loop drains gracefully: an
    in-flight point finishes and its result is sent before return.
    """
    tally = [0]
    try:
        while True:
            if stop is not None and stop.requested:
                return tally[0]
            total = tally[0]
            try:
                sock = socket.create_connection((host, port), timeout=connect_timeout)
            except OSError:
                if not reconnect:
                    raise
                time.sleep(reconnect_delay)
                continue
            sock.settimeout(None)
            try:
                _serve_connection(
                    sock, None if max_points is None else max_points - total,
                    tally, stop=stop,
                )
            except (wire.WireError, OSError):
                pass
            finally:
                try:
                    sock.close()
                except OSError:
                    pass
            if stop is not None and stop.requested:
                return tally[0]
            if not reconnect:
                return tally[0]
            if max_points is not None and tally[0] >= max_points:
                return tally[0]
            time.sleep(reconnect_delay)
    except KeyboardInterrupt:
        # The handler only interrupts while idle (blocked in a pull,
        # redial or sleep) — no work in flight, nothing to lose.
        return tally[0]


def worker_main(argv: Optional[List[str]] = None) -> int:
    """``repro-experiments worker`` — join a sweep as a remote worker."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-experiments worker",
        description="Pull sweep points from a runner's socket backend "
                    "and execute them here (see docs/service.md).",
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the runner's --backend socket address")
    parser.add_argument("--max-points", type=int, default=None, metavar="N",
                        help="exit after executing N points")
    parser.add_argument("--reconnect", action="store_true",
                        help="keep redialing when the server goes away")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-session summary line")
    args = parser.parse_args(argv)

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        parser.error(f"--connect {args.connect!r} is not HOST:PORT")

    stop = StopFlag()

    def _on_signal(signum: int, frame: object) -> None:
        stop.requested = True
        if stop.interruptible:
            raise KeyboardInterrupt

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        n = run_worker(host, int(port_text),
                       max_points=args.max_points,
                       reconnect=args.reconnect,
                       stop=stop)
    except OSError as exc:
        print(f"repro worker: cannot reach {args.connect}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    if stop.requested and not args.quiet:
        print("repro worker: shutdown signal received, exiting cleanly",
              file=sys.stderr)
    if not args.quiet:
        print(f"repro worker: executed {n} point(s)", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(worker_main())
