"""SweepRunner mechanics: fan-out, dedup, failures, retry, telemetry."""

import io
import json
import os
import time

import pytest

from repro.runner import (
    SweepError,
    SweepPoint,
    SweepRunner,
    SweepTelemetry,
    default_jobs,
)


# ----------------------------------------------------------- basic execution


@pytest.mark.parametrize("jobs", [1, 3])
def test_selftest_echo_round_trip(jobs):
    points = [SweepPoint.selftest("echo", value=i) for i in range(5)]
    payloads = SweepRunner(jobs=jobs).run_grid(points)
    assert [p["echo"] for p in payloads] == list(range(5))


def test_duplicate_points_computed_once():
    p = SweepPoint.selftest("echo", value=42)
    telemetry = SweepTelemetry()
    runner = SweepRunner(jobs=1, telemetry=telemetry)
    payloads = runner.run_grid([p, p, p])
    assert len(payloads) == 3 and all(x["echo"] == 42 for x in payloads)
    assert telemetry.total == 1  # one distinct point, one execution


def test_jobs_zero_means_machine_sized_pool():
    assert SweepRunner(jobs=0).jobs == default_jobs() >= 1
    with pytest.raises(ValueError):
        SweepRunner(jobs=-1)


def test_default_jobs_honours_cpu_affinity(monkeypatch):
    # A process pinned to 2 of 64 CPUs forks 2 workers, not 64.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 17},
                        raising=False)
    assert default_jobs() == 2
    # Without an affinity call (macOS, Windows) every CPU counts.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_jobs() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_jobs() == 1


# ----------------------------------------------------------- failure semantics


@pytest.mark.parametrize("jobs", [1, 2])
def test_point_error_is_contained_and_reported(jobs):
    good = SweepPoint.selftest("echo", value=1)
    bad = SweepPoint.selftest("raise")
    results = SweepRunner(jobs=jobs).run([good, bad])
    assert results[good].ok
    assert results[bad].status == "error"
    assert "deliberate failure" in results[bad].error
    with pytest.raises(SweepError) as exc:
        SweepRunner(jobs=jobs).run_grid([good, bad])
    assert "1 sweep point(s) failed" in str(exc.value)


@pytest.mark.parametrize("jobs", [1, 2])
def test_per_point_timeout(jobs):
    slow = SweepPoint.selftest("sleep", seconds=30.0)
    result = SweepRunner(jobs=jobs, timeout=0.3).run([slow])[slow]
    assert result.status == "timeout"
    assert "budget" in result.error


def test_sweep_error_lists_failures_in_grid_order():
    # The slow failure comes first in the grid but finishes last on the
    # pool; the error names the failures in grid order all the same.
    slow = SweepPoint.selftest("sleep", seconds=30.0)
    fast = SweepPoint.selftest("raise")
    good = SweepPoint.selftest("echo", value=1)
    with pytest.raises(SweepError) as exc:
        SweepRunner(jobs=2, timeout=0.5).run_grid([good, slow, fast])
    assert [r.point for r in exc.value.failures] == [slow, fast]
    message = str(exc.value)
    assert message.index("sleep") < message.index("raise")
    assert message.endswith(f"first error: {slow.label}: exceeded 0.5s budget")


def _fail_mid_simulation(monkeypatch, make_exc):
    """Make the 200th compute charge of any task raise ``make_exc()``."""
    from repro.cluster.task import Task

    charge = Task.charge
    calls = [0]

    def failing_charge(self, dt):
        calls[0] += 1
        if calls[0] == 200:
            raise make_exc()
        charge(self, dt)

    monkeypatch.setattr(Task, "charge", failing_charge)


@pytest.mark.parametrize("outcome", ["timeout", "error", "diverged"])
def test_failed_simulation_is_collected_before_the_point_returns(
        monkeypatch, outcome):
    # Left to the cyclic GC, the abandoned simulation's generators would
    # be closed later, possibly under the next point's armed alarm.
    import gc
    import types

    from repro.replay.errors import DivergenceError
    from repro.runner.worker import execute_point, preload

    preload()
    timeout = 0.05
    if outcome == "error":
        _fail_mid_simulation(monkeypatch,
                             lambda: RuntimeError("mid-simulation"))
        timeout = 60.0
    elif outcome == "diverged":
        _fail_mid_simulation(
            monkeypatch, lambda: DivergenceError(0, "event", 0.0, None, None))
        timeout = 60.0
    point = SweepPoint.policy_cell("sweep3d", "Full", 16, scale=1.0)
    gc.collect()
    gc.disable()
    try:
        envelope = execute_point(point, timeout=timeout)
        abandoned = [
            obj for obj in gc.get_objects()
            if isinstance(obj, types.GeneratorType)
            and obj.gi_code.co_name == "_run"
            and obj.gi_code.co_filename.endswith(os.path.join("cluster",
                                                              "task.py"))
        ]
    finally:
        gc.enable()
    assert envelope["status"] == outcome
    assert abandoned == []


def test_in_process_timeouts_print_no_ignored_exception():
    # A subprocess: pytest would catch an "Exception ignored" itself.
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", "fig7a", "--quick",
         "--jobs", "1", "--no-cache", "--scale", "1.0", "--timeout", "0.05"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 1
    assert "[timeout]" in out.stderr
    assert "Exception ignored" not in out.stderr


def test_worker_crash_is_retried_once_then_succeeds(tmp_path):
    marker = tmp_path / "crashed-once"
    point = SweepPoint.selftest("crash_once", marker=str(marker))
    result = SweepRunner(jobs=2).run([point])[point]
    assert result.ok
    assert result.payload["retried"] is True
    assert result.attempts == 2
    assert marker.exists()


def test_persistent_worker_crash_fails_after_retry_budget():
    point = SweepPoint.selftest("crash")
    result = SweepRunner(jobs=2).run([point])[point]
    assert result.status == "crashed"
    assert result.attempts == 2  # initial run + one retry


def test_crash_does_not_sink_innocent_points(tmp_path):
    marker = tmp_path / "m"
    crasher = SweepPoint.selftest("crash_once", marker=str(marker))
    bystanders = [SweepPoint.selftest("echo", value=i) for i in range(4)]
    results = SweepRunner(jobs=2).run([crasher] + bystanders)
    assert all(results[p].ok for p in bystanders)
    assert results[crasher].ok


# ----------------------------------------------------------- telemetry


def test_telemetry_json_lines_and_hit_rate(tmp_path):
    points = [SweepPoint.confsync(n, reps=2) for n in (2, 3)]

    out1 = io.StringIO()
    SweepRunner(jobs=1, cache=tmp_path, telemetry=out1).run_grid(points)
    events1 = [json.loads(line) for line in out1.getvalue().splitlines()]
    assert events1[0]["event"] == "sweep_start"
    assert events1[0] == {"event": "sweep_start", "seq": 1, "total": 2,
                          "cached": 0, "jobs": 1}
    # seq is monotonic and gap-free across the whole run.
    assert [e["seq"] for e in events1] == list(range(1, len(events1) + 1))
    point_events = [e for e in events1 if e["event"] == "point"]
    assert len(point_events) == 2
    assert all(e["status"] == "ok" and e["cached"] is False
               and e["sim_time"] > 0 for e in point_events)
    assert events1[-1]["event"] == "sweep_end"
    assert events1[-1]["hit_rate"] == 0.0

    # Acceptance: a second invocation with the same config is served
    # entirely from the cache, and the telemetry proves it.
    out2 = io.StringIO()
    runner = SweepRunner(jobs=1, cache=tmp_path, telemetry=out2)
    runner.run_grid(points)
    events2 = [json.loads(line) for line in out2.getvalue().splitlines()]
    assert events2[-1]["cached"] == 2
    assert events2[-1]["hit_rate"] == 1.0
    assert all(e["cached"] is True for e in events2 if e["event"] == "point")
    assert runner.telemetry.summary()["hit_rate"] == 1.0


def test_sweep_wall_time_covers_keying_and_cache_probes(tmp_path):
    """sweep_end's wall time starts before the runner keys its points
    and probes the cache, so a fully cached sweep counts its reads."""
    from repro.runner import ResultCache

    delay = 0.02

    class SlowCache(ResultCache):
        def get(self, key):
            time.sleep(delay)
            return super().get(key)

    points = [SweepPoint.selftest("echo", value=i) for i in range(3)]
    SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run_grid(points)
    telemetry = SweepTelemetry()
    SweepRunner(jobs=1, cache=SlowCache(tmp_path),
                telemetry=telemetry).run_grid(points)
    start, end = telemetry.events[0], telemetry.events[-1]
    assert start["event"] == "sweep_start" and start["cached"] == 3
    assert end["event"] == "sweep_end" and end["hit_rate"] == 1.0
    assert end["wall_time"] >= len(points) * delay


def test_cached_payloads_equal_computed_payloads(tmp_path):
    points = [SweepPoint.confsync(n, reps=2) for n in (2, 4)]
    fresh = SweepRunner(jobs=1, cache=tmp_path).run_grid(points)
    cached = SweepRunner(jobs=1, cache=tmp_path).run_grid(points)
    assert fresh == cached


def test_label_names_the_machine_unless_it_is_the_default():
    from repro.cluster import IA32_LINUX

    ibm = SweepPoint.confsync(4)
    ia32 = SweepPoint.confsync(4, machine=IA32_LINUX)
    assert ibm.label == "confsync@4[change=False,reps=16,stats=False]"
    assert ia32.label == \
        "confsync:ia32-linux@4[change=False,reps=16,stats=False]"
    cell = SweepPoint.instrument("sweep3d", 8, machine=IA32_LINUX)
    assert cell.label == "instrument:sweep3d:ia32-linux@8"


def test_ablated_machine_points_keep_their_own_side_documents():
    """An ablated copy keeps its preset's name; its label carries a
    digest of its constants, so per-label documents never overwrite
    the preset point's."""
    from repro.cluster import POWER3_SP
    from repro.runner.collect import OrderCollector

    ablated = POWER3_SP.with_overrides(net_latency=1e-5)
    stock = SweepPoint.confsync(2, reps=1)
    twin = SweepPoint.confsync(2, reps=1, machine=ablated)
    same = SweepPoint.confsync(2, reps=1,
                               machine=POWER3_SP.with_overrides())
    assert same.label == stock.label == "confsync@2[change=False,reps=1,stats=False]"
    assert twin.label.startswith("confsync:power3-sp~")
    assert twin.label != stock.label

    logs = OrderCollector()
    results = SweepRunner(jobs=1, collectors=[logs]).run([stock, twin])
    assert all(r.ok for r in results.values())
    assert sorted(logs.docs) == sorted([stock.label, twin.label])
    assert logs.docs[stock.label] != logs.docs[twin.label]
