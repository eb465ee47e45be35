"""Tests for the Task execution context: clocks, flushing, suspension."""

import pytest

from repro.cluster import Cluster, POWER3_SP, Task
from repro.simt import Environment


def make_task(env, name="t0", spec=None, node_index=0, bind_core=True):
    cluster = Cluster(env, spec or POWER3_SP, seed=1)
    node = cluster.node(node_index)
    return Task(env, node, name, cluster.spec, bind_core=bind_core), cluster


def test_charge_accrues_locally_without_engine_time():
    env = Environment()
    task, _ = make_task(env)
    task.charge(0.5)
    assert task.pending == 0.5
    assert task.now == 0.5
    assert env.now == 0.0


def test_negative_charge_rejected():
    env = Environment()
    task, _ = make_task(env)
    with pytest.raises(ValueError):
        task.charge(-1.0)


def test_flush_converts_pending_to_engine_time():
    env = Environment()
    task, _ = make_task(env)

    def body():
        task.charge(1.25)
        yield from task.flush()
        return env.now

    p = task.start(body())
    assert env.run(until=p) == pytest.approx(1.25)
    assert task.pending == 0.0


def test_settled_exactly_when_flush_and_checkpoint_are_no_ops():
    """Hot paths skip flush()/checkpoint() on ``settled``: it must turn
    False on pending compute and on an outstanding suspend request."""
    env = Environment()
    task, _ = make_task(env)
    assert task.settled
    task.charge(0.5)
    assert not task.settled
    env.run(until=env.process(task.flush()))
    assert task.settled
    task.request_suspend()
    task.request_suspend()
    task.resume()
    # Nothing pending, but one request is still outstanding.
    assert task.pending == 0.0 and not task.settled
    task.resume()
    assert task.settled


def test_compute_is_charge_plus_flush():
    env = Environment()
    task, _ = make_task(env)

    def body():
        yield from task.compute(2.0)
        yield from task.compute(3.0)
        return env.now

    p = task.start(body())
    assert env.run(until=p) == pytest.approx(5.0)
    assert task.compute_time == pytest.approx(5.0)


def test_task_holds_a_core_for_its_lifetime():
    env = Environment()
    task, cluster = make_task(env)
    node = cluster.node(0)

    def body():
        assert node.cores.in_use == 1
        yield from task.compute(1.0)

    p = task.start(body())
    env.run(until=p)
    env.run()
    assert node.cores.in_use == 0
    assert task.name not in node.tasks


def test_oversubscription_is_an_error():
    env = Environment()
    cluster = Cluster(env, POWER3_SP, seed=1)
    node = cluster.node(0)
    tasks = [
        Task(env, node, f"t{i}", cluster.spec)
        for i in range(node.n_cores + 1)
    ]

    def hold(task):
        yield from task.compute(10.0)

    for t in tasks:
        t.start(hold(t))

    # The 9th task cannot get a core: strict mode surfaces the crash.
    with pytest.raises(Exception) as excinfo:
        env.run()
    assert "oversubscribed" in str(excinfo.getrepr())


def test_suspend_lands_within_one_quantum():
    env = Environment()
    spec = POWER3_SP.with_overrides(compute_quantum=0.1)
    cluster = Cluster(env, spec, seed=1)
    node = cluster.node(0)
    task = Task(env, node, "victim", spec)

    def body():
        yield from task.compute(10.0)
        return env.now

    def suspender(env):
        yield env.timeout(1.0)
        task.request_suspend()
        yield task.when_parked()
        parked_at = env.now
        yield env.timeout(2.0)
        task.resume()
        return parked_at

    p = task.start(body())
    s = env.process(suspender(env))
    parked_at = env.run(until=s)
    # Suspend requested at t=1.0 must land within one quantum (0.1s).
    assert 1.0 <= parked_at <= 1.1 + 1e-9
    total = env.run(until=p)
    # The task still does its full 10s of compute, plus 2s suspended.
    assert total == pytest.approx(12.0)
    assert task.total_suspended_time == pytest.approx(2.0)
    assert len(task.suspensions) == 1


def test_nested_suspend_requires_matching_resumes():
    env = Environment()
    task, _ = make_task(env)

    def body():
        yield from task.compute(5.0)
        return env.now

    def controller(env):
        yield env.timeout(0.5)
        task.request_suspend()
        task.request_suspend()
        yield task.when_parked()
        yield env.timeout(1.0)
        task.resume()  # still suspended: one request outstanding
        yield env.timeout(1.0)
        assert task.is_parked
        task.resume()

    p = task.start(body())
    env.process(controller(env))
    total = env.run(until=p)
    assert total == pytest.approx(7.0, abs=0.06)


def test_resume_without_suspend_raises():
    env = Environment()
    task, _ = make_task(env)
    with pytest.raises(RuntimeError):
        task.resume()


def test_checkpoint_noop_when_not_suspended():
    env = Environment()
    task, _ = make_task(env)

    def body():
        yield from task.checkpoint()
        return env.now

    p = task.start(body())
    assert env.run(until=p) == 0.0
    assert env.events_processed < 10  # no parking machinery engaged


def test_observer_sees_suspension_interval():
    env = Environment()
    task, _ = make_task(env)
    seen = []

    class Obs:
        def on_suspended(self, t, start):
            seen.append(("stop", start))

        def on_resumed(self, t, start, end):
            seen.append(("go", start, end))

    task.observers.append(Obs())

    def body():
        yield from task.compute(1.0)
        yield from task.checkpoint()
        yield from task.compute(1.0)

    def controller(env):
        yield env.timeout(0.98)
        task.request_suspend()
        yield task.when_parked()
        yield env.timeout(0.5)
        task.resume()

    p = task.start(body())
    env.process(controller(env))
    env.run(until=p)
    assert seen[0][0] == "stop"
    assert seen[1][0] == "go"
    start, end = seen[1][1], seen[1][2]
    assert end - start == pytest.approx(0.5, abs=0.05)


def test_start_twice_is_an_error():
    env = Environment()
    task, _ = make_task(env)

    def body():
        yield from task.compute(0.1)

    task.start(body())
    with pytest.raises(RuntimeError, match="already started"):
        task.start(body())
