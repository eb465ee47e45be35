"""CLI acceptance: `repro sweep` output is byte-identical under both
executors.

The sweep simulations are pure functions of their configuration, so
where points run must be invisible in the output: same grid, same seed
→ the same stdout bytes, and the same ``--obs`` document, whether
points ran in-process (``--jobs 1``) or in a process pool.
"""

import pytest

from repro.experiments.cli import main

GRID = ["sweep", "--apps", "sweep3d", "--policies", "Full",
        "--cpus", "2,4", "--scale", "0.02", "--seed", "3", "--json"]


def run_cli(capsys, *extra):
    assert main(GRID + list(extra)) == 0
    return capsys.readouterr().out


def test_sweep_bytes_identical_across_executor_backends(capsys):
    serial = run_cli(capsys, "--no-cache", "--jobs", "1")
    assert serial
    assert run_cli(capsys, "--no-cache", "--jobs", "2") == serial


@pytest.mark.parametrize("argv", [
    ["worker", "--connect", "127.0.0.1:1"],
    ["serve-cache", "--port", "0"],
    ["serve", "--port", "0"],
    ["obs", "serve", "obs.json"],
    ["fig7a", "--quick", "--backend", "serial"],
    ["fig7a", "--quick", "--cache-backend", "memory"],
])
def test_retired_service_surfaces_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


# ------------------------------------------------------- sampled telemetry


def test_obs_sample_documents_identical_across_executor_backends(
        tmp_path, capsys):
    """The sampler rides the envelope, so the sampled series — like the
    payloads — must be bit-identical whether points ran in-process or
    in a pool."""
    import json

    docs = {}
    for name, jobs in (("serial", "1"), ("process", "2")):
        path = tmp_path / f"{name}.json"
        run_cli(capsys, "--no-cache", "--jobs", jobs,
                "--obs", str(path), "--obs-sample", "0.5")
        docs[name] = json.loads(path.read_text())
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
    for name, jobs in (("serial", "1"), ("process", "2")):
        path = tmp_path / f"{name}.json"
        assert main(grid + ["--jobs", jobs, "--obs", str(path)]) == 0
        raw[name] = path.read_bytes()
    capsys.readouterr()
    assert raw["process"] == raw["serial"]
