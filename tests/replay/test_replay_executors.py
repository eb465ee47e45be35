"""Replay verification through every executor backend.

Verification is one more collector, so it must behave the same whether
points run in-process, in a process pool or on a socket worker, and it
must ship each point only that point's log.
"""

import contextlib
import pickle
import threading

import pytest

from repro.runner import (
    OrderCollector,
    ReplayCollector,
    SweepPoint,
    SweepRunner,
)
from repro.svc import ExecSpec, SocketWorkerBackend, run_worker


def grid(seed=0):
    return [SweepPoint.policy_cell("sweep3d", "Dynamic", n, scale=0.02,
                                   seed=seed) for n in (2, 4)]


def recorded_logs():
    recorder = OrderCollector()
    results = SweepRunner(collectors=[recorder]).run(grid())
    assert all(r.ok for r in results.values())
    return recorder.docs


@contextlib.contextmanager
def executor(name, n_points):
    if name != "socket":
        yield name
        return
    backend = SocketWorkerBackend()
    worker = threading.Thread(
        target=run_worker, args=(backend.host, backend.port),
        kwargs={"max_points": n_points}, daemon=True)
    worker.start()
    try:
        yield backend
    finally:
        worker.join(timeout=30)
        backend.close()
    assert not worker.is_alive()


def replay(name, points, logs):
    collector = ReplayCollector(logs)
    with executor(name, len(points)) as spec:
        results = SweepRunner(executor=spec, collectors=[collector]).run(points)
    return [results[p] for p in points], collector


@pytest.mark.parametrize("name", ["serial", "process:2", "socket"])
def test_replay_verifies_and_diverges_under_every_executor(name):
    logs = recorded_logs()
    ok, collector = replay(name, grid(), logs)
    assert [r.status for r in ok] == ["ok", "ok"]
    assert sorted(collector.docs) == sorted(logs)
    assert all(doc["decisions"] > 0 for doc in collector.docs.values())

    # Same labels, different seed: every point must depart from its log,
    # at the same decision as the serial replay reports.
    bad, _ = replay(name, grid(seed=3), logs)
    assert [r.status for r in bad] == ["diverged", "diverged"]
    serial, _ = replay("serial", grid(seed=3), logs)
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
    assert fifty.to_wire(point) == one.to_wire(point)
    # A point without a log carries no replay collector at all.
    assert one.worker_args(other)[2] == []
    assert one.to_wire(other)["collectors"] == []
