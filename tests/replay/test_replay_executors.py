"""Replay verification through both executors.

Verification is one more collector, so it must behave the same whether
points run in-process or in a process pool, and it must ship each
point only that point's log.
"""

import pickle

import pytest

from repro.runner import (
    OrderCollector,
    ReplayCollector,
    SweepPoint,
    SweepRunner,
)
from repro.svc import ExecSpec


def grid(seed=0):
    return [SweepPoint.policy_cell("sweep3d", "Dynamic", n, scale=0.02,
                                   seed=seed) for n in (2, 4)]


def recorded_logs():
    recorder = OrderCollector()
    results = SweepRunner(collectors=[recorder]).run(grid())
    assert all(r.ok for r in results.values())
    return recorder.docs


def replay(jobs, points, logs):
    collector = ReplayCollector(logs)
    runner = SweepRunner(jobs=jobs, collectors=[collector])
    try:
        results = runner.run(points)
    finally:
        runner.close()
    return [results[p] for p in points], collector


@pytest.mark.parametrize("jobs", [pytest.param(1, id="serial"),
                                  pytest.param(2, id="process:2")])
def test_replay_verifies_and_diverges_under_every_executor(jobs):
    logs = recorded_logs()
    ok, collector = replay(jobs, grid(), logs)
    assert [r.status for r in ok] == ["ok", "ok"]
    assert sorted(collector.docs) == sorted(logs)
    assert all(doc["decisions"] > 0 for doc in collector.docs.values())

    # Same labels, different seed: every point must depart from its log,
    # at the same decision as the serial replay reports.
    bad, _ = replay(jobs, grid(seed=3), logs)
    assert [r.status for r in bad] == ["diverged", "diverged"]
    serial, _ = replay(1, grid(seed=3), logs)
    assert [r.divergence for r in bad] == [r.divergence for r in serial]


def test_each_point_ships_only_its_own_log():
    logs = recorded_logs()
    point, other = grid()
    blob = logs[point.label]
    many = {f"policy:sweep3d:Dynamic@{100 + i}": blob for i in range(49)}
    many[point.label] = blob
    one = ExecSpec(collectors=[ReplayCollector({point.label: blob})])
    fifty = ExecSpec(collectors=[ReplayCollector(many)])
    assert len(many) == 50
    assert (len(pickle.dumps(fifty.worker_args(point)))
            == len(pickle.dumps(one.worker_args(point))))
    # A point without a log carries no replay collector at all.
    assert one.worker_args(other)[2] == []
