"""Live telemetry endpoints of the service layer: the cache daemon's
/metrics route and the socket executor's `stats` wire frame."""

import json
import threading
import urllib.request

import pytest

from repro.runner import SweepPoint
from repro.svc import ExecSpec, SocketWorkerBackend, fetch_stats, serve_cache
from repro.svc.worker import run_worker
from repro.svc.wire import WireError

from tests.obs.test_prom import parse_exposition


# --------------------------------------------------------- daemon /metrics


@pytest.fixture()
def daemon():
    d = serve_cache(port=0)
    d.serve_in_thread()
    yield d
    d.shutdown()
    d.server_close()


def _get(daemon, path):
    port = daemon.server_address[1]
    return urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                  timeout=10)


def test_metrics_route_parses_and_counts_requests(daemon):
    key = "0" * 64
    with pytest.raises(urllib.error.HTTPError):
        _get(daemon, f"/cache/{key}")  # miss: 404, but gets += 1

    with _get(daemon, "/metrics") as resp:
        assert resp.headers["Content-Type"].startswith(
            "text/plain; version=0.0.4")
        fams = parse_exposition(resp.read().decode("utf-8"))
    assert fams["repro_cache_gets_total"][0] == "counter"
    assert fams["repro_cache_gets_total"][1]["repro_cache_gets_total"] == 1.0
    assert fams["repro_cache_entries"][1]["repro_cache_entries"] == 0.0


def test_metrics_and_stats_agree(daemon):
    with _get(daemon, "/stats") as resp:
        stats = json.loads(resp.read())
    with _get(daemon, "/metrics") as resp:
        fams = parse_exposition(resp.read().decode("utf-8"))
    assert fams["repro_cache_entries"][1]["repro_cache_entries"] == \
        stats["entries"]
    # Every numeric backend stat surfaces as a gauge.
    for name, value in stats["backend"].items():
        if isinstance(value, (int, float)):
            fam = f"repro_cache_backend_{name}"
            assert fams[fam][1][fam] == float(value)


# ------------------------------------------------------- socket stats frame


def test_stats_frame_reports_served_points():
    backend = SocketWorkerBackend()
    try:
        stats = fetch_stats(backend.host, backend.port)
        # The stats client's own hello counts it among the connected
        # workers for the duration of the request.
        assert stats["queued"] == 0
        assert stats["served"] == 0
        assert stats["stats_requests"] == 1

        points = [SweepPoint.selftest("echo", value=i) for i in range(3)]
        worker = threading.Thread(
            target=run_worker,
            args=(backend.host, backend.port),
            kwargs={"max_points": len(points)},
            daemon=True,
        )
        worker.start()
        outcomes = list(backend.run(points, ExecSpec()))
        worker.join(timeout=15)
        assert len(outcomes) == 3

        stats = fetch_stats(backend.host, backend.port)
        assert stats["served"] == 3
        assert stats["queued"] == 0
        assert stats["stats_requests"] == 2
    finally:
        backend.close()


def test_stats_frame_leaves_point_serving_undisturbed():
    """A monitoring client polling stats must not steal queued points."""
    backend = SocketWorkerBackend()
    try:
        point = SweepPoint.selftest("echo", value="watched")
        box = {}

        def run():
            ((_point, *box["outcome"]),) = backend.run([point], ExecSpec())

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        # Poll stats while the point sits queued with no worker yet.
        for _ in range(3):
            stats = fetch_stats(backend.host, backend.port)
        assert stats["queued"] == 1

        worker = threading.Thread(
            target=run_worker,
            args=(backend.host, backend.port),
            kwargs={"max_points": 1},
            daemon=True,
        )
        worker.start()
        runner.join(timeout=15)
        envelope, attempts = box["outcome"]
        assert envelope["status"] == "ok"
        assert envelope["payload"]["echo"] == "watched"
    finally:
        backend.close()


def test_fetch_stats_wire_error_on_non_server():
    import socket

    # A listener that closes immediately: hello never gets a welcome.
    lsock = socket.socket()
    lsock.bind(("127.0.0.1", 0))
    lsock.listen(1)
    port = lsock.getsockname()[1]

    def accept_and_drop():
        conn, _ = lsock.accept()
        conn.close()

    t = threading.Thread(target=accept_and_drop, daemon=True)
    t.start()
    try:
        with pytest.raises((WireError, OSError)):
            fetch_stats("127.0.0.1", port, connect_timeout=5.0)
    finally:
        lsock.close()
