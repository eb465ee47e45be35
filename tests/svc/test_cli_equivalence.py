"""CLI acceptance: `repro sweep` output is byte-identical across every
cache backend and every executor backend.

The sweep simulations are pure functions of their configuration, so the
service layer must be invisible in the output: same grid, same seed →
the same stdout bytes whether points ran serially, in a process pool,
or on a socket worker, and whether results passed through a directory,
memory, SQLite or HTTP cache.
"""

import socket
import threading

import pytest

from repro.experiments.cli import main
from repro.svc import serve_cache
from repro.svc.worker import run_worker

GRID = ["sweep", "--apps", "sweep3d", "--policies", "Full",
        "--cpus", "2,4", "--scale", "0.02", "--seed", "3", "--json"]


def run_cli(capsys, *extra):
    assert main(GRID + list(extra)) == 0
    return capsys.readouterr().out


def free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


# --------------------------------------------------------- cache backends


def test_sweep_bytes_identical_across_cache_backends(tmp_path, capsys):
    daemon = serve_cache(port=0)
    daemon.serve_in_thread()
    http_spec = f"http://127.0.0.1:{daemon.server_address[1]}"
    try:
        outputs = {
            "directory": run_cli(
                capsys, "--cache-backend", f"dir:{tmp_path / 'dcache'}"),
            "memory": run_cli(capsys, "--cache-backend", "memory"),
            "sqlite": run_cli(
                capsys, "--cache-backend", f"sqlite:{tmp_path / 'cache.db'}"),
            "http": run_cli(
                capsys, "--cache-backend", http_spec,
                "--cache-dir", str(tmp_path / "http-fallback")),
            "none": run_cli(capsys, "--no-cache"),
        }
    finally:
        daemon.shutdown()
        daemon.server_close()
    baseline = outputs.pop("directory")
    assert baseline  # non-empty JSON document
    for name, out in outputs.items():
        assert out == baseline, f"{name} backend output diverged"


def test_sweep_cache_backend_rerun_fully_hits(tmp_path, capsys):
    import json

    spec = f"sqlite:{tmp_path / 'cache.db'}"
    first = json.loads(run_cli(capsys, "--cache-backend", spec))
    second = json.loads(run_cli(capsys, "--cache-backend", spec))
    assert first["telemetry"]["hit_rate"] == 0.0
    assert second["telemetry"]["hit_rate"] == 1.0
    assert [r["payload"] for r in second["sweep"]] == \
        [r["payload"] for r in first["sweep"]]


def test_cache_dir_and_dir_backend_hit_each_other(tmp_path, capsys):
    import json

    def payloads(doc):
        return [r["payload"] for r in doc["sweep"]]

    a, b = tmp_path / "a", tmp_path / "b"
    cold = json.loads(run_cli(capsys, "--cache-dir", str(a)))
    warm = json.loads(run_cli(capsys, "--cache-backend", f"dir:{a}"))
    assert cold["telemetry"]["hit_rate"] == 0.0
    assert warm["telemetry"]["hit_rate"] == 1.0
    assert payloads(warm) == payloads(cold)

    cold = json.loads(run_cli(capsys, "--cache-backend", f"dir:{b}"))
    warm = json.loads(run_cli(capsys, "--cache-dir", str(b)))
    assert cold["telemetry"]["hit_rate"] == 0.0
    assert warm["telemetry"]["hit_rate"] == 1.0
    assert payloads(warm) == payloads(cold)


def _unopenable(kind, tmp_path):
    """A cache spec that cannot be opened: a scheme other than http, or
    a SQLite file whose parent directory is a regular file."""
    if kind == "https":
        return "https://h:1"
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    return f"sqlite:{blocker / 'x.db'}"


@pytest.mark.parametrize("kind", ["https", "sqlite"])
def test_bad_cache_backend_spec_is_a_one_line_error(kind, tmp_path):
    spec = _unopenable(kind, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(GRID + ["--cache-backend", spec])
    message = str(exc.value.code)
    assert message.startswith(
        f"repro-experiments: --cache-backend {spec}: "), message
    assert "\n" not in message


@pytest.mark.parametrize("kind", ["https", "sqlite"])
def test_bad_serve_cache_store_is_a_one_line_error(kind, tmp_path):
    from repro.svc.httpcache import serve_cache_main

    spec = _unopenable(kind, tmp_path)
    with pytest.raises(SystemExit) as exc:
        serve_cache_main(["--port", "0", "--store", spec])
    message = str(exc.value.code)
    assert message.startswith(f"repro-experiments: --store {spec}: "), message


# ------------------------------------------------------ executor backends


def test_sweep_bytes_identical_across_executor_backends(capsys):
    port = free_port()
    worker = threading.Thread(
        target=run_worker,
        args=("127.0.0.1", port),
        kwargs={"max_points": 2, "reconnect": True},
        daemon=True,
    )
    worker.start()
    outputs = {
        "serial": run_cli(capsys, "--no-cache", "--backend", "serial"),
        "process": run_cli(capsys, "--no-cache", "--backend", "process:2",
                           "--jobs", "2"),
        "socket": run_cli(capsys, "--no-cache",
                          "--backend", f"socket:127.0.0.1:{port}"),
    }
    worker.join(timeout=15)
    assert not worker.is_alive()
    baseline = outputs.pop("serial")
    for name, out in outputs.items():
        assert out == baseline, f"{name} executor output diverged"


def test_sweep_socket_backend_announces_address(capsys):
    port = free_port()
    worker = threading.Thread(
        target=run_worker,
        args=("127.0.0.1", port),
        kwargs={"max_points": 2, "reconnect": True},
        daemon=True,
    )
    worker.start()
    assert main(GRID + ["--no-cache",
                        "--backend", f"socket:127.0.0.1:{port}"]) == 0
    captured = capsys.readouterr()
    worker.join(timeout=15)
    assert f"127.0.0.1:{port}" in captured.err
    assert "worker --connect" in captured.err


def test_unknown_backend_spec_is_an_error(capsys):
    with pytest.raises(SystemExit):
        main(GRID + ["--backend", "carrier-pigeon"])


# ------------------------------------------------------- sampled telemetry


def test_obs_sample_documents_identical_across_executor_backends(
        tmp_path, capsys):
    """The sampler rides the envelope, so the sampled series — like the
    payloads — must be bit-identical whether points ran in-process, in
    a pool, or on a socket worker."""
    import json

    port = free_port()
    worker = threading.Thread(
        target=run_worker,
        args=("127.0.0.1", port),
        kwargs={"max_points": 2, "reconnect": True},
        daemon=True,
    )
    worker.start()
    docs = {}
    for name, spec in (("serial", "serial"), ("process", "process:2"),
                       ("socket", f"socket:127.0.0.1:{port}")):
        path = tmp_path / f"{name}.json"
        run_cli(capsys, "--no-cache", "--backend", spec,
                "--obs", str(path), "--obs-sample", "0.5")
        docs[name] = json.loads(path.read_text())
    worker.join(timeout=15)
    assert not worker.is_alive()
    baseline = docs.pop("serial")
    assert baseline["timeseries"]  # the sampler actually sampled
    for name, doc in docs.items():
        assert doc == baseline, f"{name} obs document diverged"


def test_obs_document_bytes_identical_under_process_pool(tmp_path, capsys):
    """Attachments merge in grid order, not completion order.  The
    first point is the slowest, so the pool finishes the grid out of
    order; the raw --obs bytes must still equal the serial run's."""
    grid = ["sweep", "--apps", "sweep3d", "--policies", "Full",
            "--cpus", "16,1,2", "--scale", "0.02", "--no-cache",
            "--obs-sample", "0.5"]
    raw = {}
    for name, spec in (("serial", "serial"), ("process", "process:2")):
        path = tmp_path / f"{name}.json"
        assert main(grid + ["--backend", spec, "--obs", str(path)]) == 0
        raw[name] = path.read_bytes()
    capsys.readouterr()
    assert raw["process"] == raw["serial"]
