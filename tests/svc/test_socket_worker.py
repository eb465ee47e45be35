"""Wire framing and the socket executor's crash/reconnect semantics.

The crash tests run real ``repro.svc.worker`` subprocesses: the
``selftest`` crash modes call ``os._exit``, which must kill a worker
process, never the test process.
"""

import io
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.runner import SweepPoint
from repro.runner.retry import RetryPolicy
from repro.svc import ExecSpec, SocketWorkerBackend, run_worker
from repro.svc import wire

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def spawn_worker(address, *extra):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.svc.worker",
         "--connect", address, "--quiet", *extra],
        env=worker_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def run_one(backend, point, spec):
    """Run one point through ``backend.run``; (envelope, attempts)."""
    ((_point, envelope, attempts),) = backend.run([point], spec)
    return envelope, attempts


# ------------------------------------------------------------------- wire


def test_wire_round_trip_and_eof():
    a, b = socket.socketpair()
    try:
        doc = {"op": "point", "blob": "x" * 100_000, "n": [1, 2.5, None]}
        wire.send_message(a, doc)
        assert wire.recv_message(b) == doc
        a.close()
        assert wire.recv_message(b) is None  # clean EOF at a boundary
    finally:
        b.close()


def test_wire_mid_frame_cut_raises():
    a, b = socket.socketpair()
    try:
        # A length header promising more bytes than ever arrive.
        a.sendall(b"\x00\x00\x00\x10partial")
        a.close()
        with pytest.raises(wire.WireError):
            wire.recv_message(b)
    finally:
        b.close()


def test_wire_deeply_nested_frame_is_a_wire_error():
    # Deeper than the JSON parser's recursion limit: must not escape as
    # a RecursionError that kills the connection thread.
    body = b"[" * 200000
    with pytest.raises(wire.WireError, match="undecodable"):
        wire.read_frame(io.BytesIO(len(body).to_bytes(4, "big") + body))


def test_wire_rejects_oversized_frame():
    a, b = socket.socketpair()
    try:
        a.sendall((wire.MAX_FRAME + 1).to_bytes(4, "big"))
        with pytest.raises(wire.WireError):
            wire.recv_message(b)
    finally:
        a.close()
        b.close()


# --------------------------------------------------------------- protocol


@pytest.mark.parametrize("hello", [
    {"op": "hello", "version": 1},
    {"op": "hello", "version": 2},
    {"op": "hello"},
])
def test_server_closes_other_protocol_versions(hello):
    """A stale worker must not be fed points it would run without their
    collectors: the server hangs up instead of welcoming it."""
    backend = SocketWorkerBackend()
    try:
        with socket.create_connection((backend.host, backend.port),
                                      timeout=10) as sock:
            wire.send_message(sock, hello)
            assert wire.recv_message(sock) is None
    finally:
        backend.close()


def test_worker_rejects_unknown_collector_in_spec_frame():
    from repro.svc.worker import _serve_connection

    server, client = socket.socketpair()
    try:
        def serve():
            assert wire.recv_message(server)["version"] == wire.PROTOCOL_VERSION
            wire.send_message(server, {"op": "welcome"})
            wire.recv_message(server)  # pull
            wire.send_message(server, {
                "op": "point",
                "point": SweepPoint.selftest("echo", value=1).canonical(),
                "spec": {"collectors": [{"name": "no-such", "params": {}}]},
            })

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        with pytest.raises(wire.WireError, match="no-such"):
            _serve_connection(client, None, [0])
        thread.join(timeout=10)
    finally:
        server.close()
        client.close()


# ------------------------------------------------------------- happy path


def test_in_thread_worker_executes_batch():
    backend = SocketWorkerBackend()
    try:
        points = [SweepPoint.selftest("echo", value=i) for i in range(4)]
        thread = threading.Thread(
            target=run_worker,
            args=(backend.host, backend.port),
            kwargs={"max_points": len(points)},
            daemon=True,
        )
        thread.start()
        outcomes = list(backend.run(points, ExecSpec()))
        thread.join(timeout=10)
        assert len(outcomes) == 4
        by_point = {p: env for p, env, _ in outcomes}
        for i, p in enumerate(points):
            assert by_point[p]["status"] == "ok"
            assert by_point[p]["payload"]["echo"] == i
        assert all(attempts == 1 for _, _, attempts in outcomes)
    finally:
        backend.close()


def test_worker_subprocess_executes_points(tmp_path):
    backend = SocketWorkerBackend()
    proc = spawn_worker(backend.address, "--max-points", "2")
    try:
        assert backend.wait_for_workers(1, timeout=15) >= 1
        points = [SweepPoint.selftest("echo", value=i) for i in range(2)]
        outcomes = list(backend.run(points, ExecSpec()))
        assert all(env["status"] == "ok" for _, env, _ in outcomes)
        assert proc.wait(timeout=15) == 0
    finally:
        proc.kill()
        backend.close()


# ---------------------------------------------------------- crash recovery


def test_worker_crash_requeues_point_to_surviving_worker(tmp_path):
    """A worker dying mid-point costs one retry, never a lost result."""
    backend = SocketWorkerBackend()
    procs = []
    try:
        marker = tmp_path / "crashed-once"
        point = SweepPoint.selftest("crash_once", marker=str(marker))
        spec = ExecSpec(retry=RetryPolicy(max_attempts=2, backoff=0.01))

        box = {}

        def run():
            box["outcome"] = run_one(backend, point, spec)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()

        # First worker pulls the point and dies (os._exit); the server
        # requeues it; the second worker completes the retry.
        procs.append(spawn_worker(backend.address))
        procs.append(spawn_worker(backend.address))
        runner.join(timeout=30)
        assert "outcome" in box, "point never completed after worker crash"
        envelope, attempts = box["outcome"]
        assert envelope["status"] == "ok"
        assert envelope["payload"]["retried"] is True
        assert attempts == 2
        assert marker.exists()
    finally:
        backend.close()
        for proc in procs:
            proc.kill()


def test_crash_exhausts_retry_budget_to_crashed_envelope(tmp_path):
    backend = SocketWorkerBackend()
    procs = []
    try:
        # Crashes on *every* attempt; budget of 2 means two dead workers
        # and then a terminal "crashed" envelope.
        point = SweepPoint.selftest("crash")
        spec = ExecSpec(retry=RetryPolicy(max_attempts=2, backoff=0.01))

        box = {}

        def run():
            box["outcome"] = run_one(backend, point, spec)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        for _ in range(3):
            procs.append(spawn_worker(backend.address))
        runner.join(timeout=30)
        assert "outcome" in box
        envelope, attempts = box["outcome"]
        assert envelope["status"] == "crashed"
        assert attempts == 2
        assert "worker process died" in envelope["error"]
    finally:
        backend.close()
        for proc in procs:
            proc.kill()


# ------------------------------------------------------------- reconnect


def test_reconnecting_worker_dials_until_server_appears():
    # Reserve a port, release it, and point a --reconnect worker at it
    # *before* the server exists: the worker must keep dialing.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    proc = spawn_worker(f"127.0.0.1:{port}", "--reconnect",
                        "--max-points", "1")
    backend = None
    try:
        time.sleep(0.3)  # worker is now in its redial loop
        backend = SocketWorkerBackend("127.0.0.1", port)
        point = SweepPoint.selftest("echo", value="late-server")
        envelope, attempts = run_one(
            backend, point, ExecSpec(retry=RetryPolicy(max_attempts=2)))
        assert envelope["status"] == "ok"
        assert envelope["payload"]["echo"] == "late-server"
        assert proc.wait(timeout=15) == 0  # max-points reached, clean exit
    finally:
        proc.kill()
        if backend is not None:
            backend.close()


def test_close_sends_shutdown_to_idle_worker():
    backend = SocketWorkerBackend()
    proc = spawn_worker(backend.address)
    try:
        assert backend.wait_for_workers(1, timeout=15) >= 1
        backend.close()
        # The idle worker's next pull gets a shutdown and it exits 0.
        assert proc.wait(timeout=15) == 0
    finally:
        proc.kill()
