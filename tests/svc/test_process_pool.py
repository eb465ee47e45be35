"""ProcessPoolBackend: one long-lived, largest-first pool per invocation.

The pool is built lazily on the first batch with misses, reused by
every later grid of the same backend, replaced after a crash wave and
shut down by ``close()`` — which the CLI calls — so a figure command
forks its workers once and leaves none behind.
"""

import cProfile
import multiprocessing
import time

import pytest

from repro.experiments.cli import main
from repro.runner import RetryPolicy, SweepPoint, SweepRunner
from repro.runner import runner as runner_module
from repro.svc import executors
from repro.svc.executors import ExecSpec, ProcessPoolBackend


@pytest.fixture
def two_cpus(monkeypatch):
    """The CLI default (--jobs 0) sizes the pool from the CPUs; pin it
    so a one-CPU machine still exercises the pool."""
    monkeypatch.setattr(runner_module, "default_jobs", lambda: 2)


@pytest.fixture
def pools(monkeypatch, two_cpus):
    """Spy on pool construction (``new:<workers>``) and shutdown, in
    order, and on the points submitted."""
    events = []
    submitted = []

    class SpyPool(executors.ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            events.append(f"new:{max_workers}")
            super().__init__(max_workers, *args, **kwargs)

        def submit(self, fn, point, *args, **kwargs):
            submitted.append(point)
            return super().submit(fn, point, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            events.append("shutdown")
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(executors, "ProcessPoolExecutor", SpyPool)
    return events, submitted


def test_one_pool_per_cli_invocation(pools, capsys):
    events, _ = pools
    # fig8 runs three grids (fig8a, fig8b, fig8c) on one backend.
    assert main(["fig8", "--quick", "--no-cache"]) == 0
    assert events == ["new:2", "shutdown"]


def test_fully_cached_rerun_builds_no_pool(pools, tmp_path, capsys):
    events, _ = pools
    argv = ["fig9", "--quick", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    del events[:]
    assert main(argv) == 0
    assert events == []
    assert capsys.readouterr().out == first


def test_cli_default_runs_in_process_under_a_profiler(pools, capsys):
    events, _ = pools
    argv = ["fig9", "--quick", "--no-cache"]
    assert main(argv) == 0
    pooled = capsys.readouterr().out
    assert events == ["new:2", "shutdown"]
    del events[:]
    # Pool workers would take the simulation out of the profile.
    assert cProfile.Profile().runcall(main, argv) == 0
    assert events == []
    assert capsys.readouterr().out == pooled
    # An explicit --jobs still wins.
    assert cProfile.Profile().runcall(main, argv + ["--jobs", "0"]) == 0
    assert events == ["new:2", "shutdown"]


def test_no_child_outlives_main(two_cpus, capsys):
    before = set(multiprocessing.active_children())
    assert main(["fig8", "--quick", "--no-cache"]) == 0
    assert set(multiprocessing.active_children()) - before == set()


def _echo(procs, value):
    return SweepPoint("selftest", procs,
                      params=(("mode", "echo"), ("value", value)))


def test_submission_is_largest_procs_first_and_stable(pools):
    _, submitted = pools
    grid = [_echo(1, "a"), _echo(4, "b"), _echo(2, "c"),
            _echo(4, "d"), _echo(1, "e"), _echo(2, "f")]
    with ProcessPoolBackend(jobs=2) as backend:
        done = {p: env for p, env, _ in backend.run(grid, ExecSpec())}
    assert [p.param("value") for p in submitted] == ["b", "d", "c", "f", "a", "e"]
    assert {p: env["payload"]["echo"] for p, env in done.items()} == {
        p: p.param("value") for p in grid}


def test_pool_is_reused_and_grown_only_when_needed(pools):
    events, _ = pools
    with ProcessPoolBackend(jobs=3) as backend:
        for size in (2, 1, 2):
            batch = [_echo(1, f"{size}-{i}") for i in range(size)]
            list(backend.run(batch, ExecSpec()))
        assert events == ["new:2"]
        list(backend.run([_echo(1, f"big-{i}") for i in range(5)], ExecSpec()))
        assert events == ["new:2", "shutdown", "new:3"]
    assert events == ["new:2", "shutdown", "new:3", "shutdown"]


def test_crash_wave_shuts_the_dead_pool_down_before_the_retry(pools, tmp_path):
    events, _ = pools
    point = SweepPoint.selftest("crash_once", marker=str(tmp_path / "m"))
    runner = SweepRunner(jobs=2, retry=RetryPolicy(max_attempts=2))
    result = runner.run([point])[point]
    assert result.ok and result.attempts == 2
    assert events == ["new:1", "shutdown", "new:1"]
    runner.executor.close()
    assert events == ["new:1", "shutdown", "new:1", "shutdown"]


def test_a_worker_lost_between_batches_costs_no_retry(pools):
    events, _ = pools
    with ProcessPoolBackend(jobs=2) as backend:
        before = set(multiprocessing.active_children())
        list(backend.run([_echo(1, "a"), _echo(1, "b")], ExecSpec()))
        victim = (set(multiprocessing.active_children()) - before).pop()
        victim.kill()
        victim.join()
        deadline = time.monotonic() + 30
        while not backend._pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        done = list(backend.run([_echo(1, "c"), _echo(1, "d")], ExecSpec()))
    assert sorted((env["payload"]["echo"], attempts) for _, env, attempts in done) == [
        ("c", 1), ("d", 1)]
    assert events == ["new:2", "shutdown", "new:2", "shutdown"]
