"""Parallel == serial: determinism is the subsystem's acceptance test.

The simulations are pure functions of their configuration, so fanning a
grid over worker processes — or serving it from the cache — must
reproduce the serial figures bit-for-bit (``to_dict`` equality covers
every float; ``render`` equality covers the byte-identical text form).
"""

import json

import pytest

from repro.apps import SMG98, SWEEP3D
from repro.cluster import POWER3_SP
from repro.experiments import run_fig7, run_fig8a, run_fig9, run_tracevol
from repro.experiments.fig7 import fig7_plan
from repro.runner import SweepRunner

SCALE = 0.02
SEED = 2


def on(jobs, call, *args, **kwargs):
    """``call(*args, **kwargs)`` on a runner of ``jobs`` workers."""
    runner = SweepRunner(jobs=jobs)
    try:
        return call(*args, runner=runner, **kwargs)
    finally:
        runner.close()


@pytest.mark.parametrize("app,cpus", [
    (SMG98, (1, 4)),
    (SWEEP3D, (2, 4)),
])
def test_fig7_parallel_identical_to_serial(app, cpus):
    serial = on(1, run_fig7, app, cpu_counts=cpus, scale=SCALE, seed=SEED)
    parallel = on(4, run_fig7, app, cpu_counts=cpus, scale=SCALE, seed=SEED)
    assert parallel.to_dict() == serial.to_dict()
    assert parallel.render() == serial.render()
    assert parallel.to_csv() == serial.to_csv()


def test_fig7_collect_identical_across_paths():
    # Every payload field of the grid, not just the plotted times.
    points, _figure = fig7_plan(SWEEP3D, (2, 4), SCALE, POWER3_SP, SEED, None)
    serial = on(1, lambda runner: runner.run_grid(points))
    parallel = on(3, lambda runner: runner.run_grid(points))
    assert serial == parallel


def test_fig7_cached_rerun_identical_and_fully_hit(tmp_path):
    runner = SweepRunner(jobs=4, cache=tmp_path)
    try:
        first = run_fig7(SMG98, cpu_counts=(1, 4), scale=SCALE, seed=SEED,
                         runner=runner)
    finally:
        runner.close()
    rerun_runner = SweepRunner(jobs=1, cache=tmp_path)
    second = run_fig7(SMG98, cpu_counts=(1, 4), scale=SCALE, seed=SEED,
                      runner=rerun_runner)
    assert second.to_dict() == first.to_dict()
    assert second.render() == first.render()
    assert rerun_runner.telemetry.summary()["hit_rate"] == 1.0


def test_fig8a_parallel_identical_to_serial():
    serial = on(1, run_fig8a, proc_counts=(2, 8), seed=1)
    parallel = on(2, run_fig8a, proc_counts=(2, 8), seed=1)
    assert parallel.to_dict() == serial.to_dict()


def test_fig9_parallel_identical_to_serial():
    serial = on(1, run_fig9, cpu_counts=(1, 2), apps=("sweep3d", "umt98"))
    parallel = on(2, run_fig9, cpu_counts=(1, 2), apps=("sweep3d", "umt98"))
    assert parallel.to_dict() == serial.to_dict()
    # The None placement (no 1-CPU Sweep3d point) survives the fan-out.
    assert parallel.get("Sweep3d").values[0] is None


def test_tracevol_parallel_identical_to_serial():
    serial = on(1, run_tracevol, apps=["sweep3d"], n_cpus=4, scale=SCALE,
                seed=1)
    parallel = on(2, run_tracevol, apps=["sweep3d"], n_cpus=4, scale=SCALE,
                  seed=1)
    assert parallel == serial


def test_fig7_and_tracevol_share_cache_entries(tmp_path):
    """Identical (app, policy, cpus) cells hit the same cache slots."""
    warm = SweepRunner(jobs=1, cache=tmp_path)
    run_tracevol(apps=["sweep3d"], n_cpus=4, scale=SCALE, seed=SEED,
                 runner=warm)
    reader = SweepRunner(jobs=1, cache=tmp_path)
    run_fig7(SWEEP3D, cpu_counts=(4,), scale=SCALE, seed=SEED, runner=reader)
    assert reader.telemetry.summary()["hit_rate"] == 1.0


# ----------------------------------------------------------- CLI acceptance


def test_cli_fig7a_jobs_rerun_fully_cached(tmp_path, capsys):
    """`repro-experiments fig7a --jobs 4` twice: identical figure, and
    the second invocation completes with 100% cache hits."""
    from repro.experiments.cli import main

    argv = ["fig7a", "--quick", "--scale", "0.02", "--jobs", "4",
            "--cache-dir", str(tmp_path), "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)

    assert second["results"] == first["results"]
    assert first["telemetry"]["hit_rate"] == 0.0
    assert second["telemetry"]["hit_rate"] == 1.0
    assert second["telemetry"]["failed"] == 0
    fig = first["results"][0]
    assert fig["type"] == "figure" and fig["figure_id"] == "fig7a"


def test_cli_sweep_subcommand(tmp_path, capsys):
    from repro.experiments.cli import main

    argv = ["sweep", "--apps", "sweep3d", "--policies", "Full,None",
            "--cpus", "2,4", "--scale", "0.02", "--jobs", "2",
            "--cache-dir", str(tmp_path), "--json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = doc["sweep"]
    assert [(r["app"], r["policy"], r["cpus"]) for r in rows] == [
        ("sweep3d", "Full", 2), ("sweep3d", "Full", 4),
        ("sweep3d", "None", 2), ("sweep3d", "None", 4),
    ]
    assert all(r["status"] == "ok" and r["payload"]["time"] > 0 for r in rows)
    assert doc["telemetry"]["failed"] == 0

    # Second invocation: fully cached.
    assert main(argv) == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2["telemetry"]["hit_rate"] == 1.0
    assert [r["payload"] for r in doc2["sweep"]] == [r["payload"] for r in rows]


def test_cli_sweep_text_table(tmp_path, capsys):
    from repro.experiments.cli import main

    assert main(["sweep", "--apps", "sweep3d", "--policies", "None",
                 "--cpus", "2", "--scale", "0.02",
                 "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "sweep3d" in out and "hit rate" in out
