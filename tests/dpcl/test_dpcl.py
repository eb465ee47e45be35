"""DPCL system tests: daemons, client ops, asynchrony, callbacks."""


from repro.cluster import Cluster, POWER3_SP
from repro.dpcl import DpclClient, DpclError, raise_failures
from repro.jobs import MpiJob
from repro.program import ENTRY, CallFunc, Const
from repro.simt import Environment

SPEC = POWER3_SP.with_overrides(net_jitter=0.0)


def build_job(env, n_procs=4, work_time=5.0, nfuncs=6):
    """An MPI job whose ranks compute then exit."""
    from repro.program import ExecutableImage

    cluster = Cluster(env, SPEC, seed=9)
    exe = ExecutableImage("target")
    for i in range(nfuncs):
        exe.define(f"work{i}")

    def program(pctx):
        yield from pctx.call("MPI_Init")
        for _ in range(10):
            yield from pctx.call_batch("work0", 100, 1e-6)
            yield from pctx.compute(work_time / 10)
        yield from pctx.call("MPI_Finalize")
        return "done"

    job = MpiJob(env, cluster, exe, n_procs, program)
    return cluster, job


def run_tool(env, cluster, job, tool_body):
    """Run an instrumenter process alongside the job."""
    from repro.cluster import Task

    login = cluster.node(0)
    tool_task = Task(env, login, "tool", SPEC, bind_core=False)
    client = DpclClient(env, cluster, login, job.daemon_host)

    def tool_main():
        return (yield from tool_body(client))

    proc = tool_task.start(tool_main())
    return client, proc


def process_names(job):
    return [t.name for t in job.tasks]


def locations(job):
    return {t.name: t.node for t in job.tasks}


def test_connect_and_attach():
    env = Environment()
    cluster, job = build_job(env, n_procs=4)

    def tool(client):
        yield from client.connect(locations(job))
        attached, failures = yield from client.attach(process_names(job))
        assert failures == {}
        return attached

    _client, proc = run_tool(env, cluster, job, tool)
    job.start()
    env.run(until=proc)
    assert len(proc.value) == 4
    env.run()  # let the job finish


def test_attach_charges_per_process_structure_walk():
    env = Environment()
    cluster, job = build_job(env, n_procs=1)

    def tool(client):
        yield from client.connect(locations(job))
        t0 = env.now
        yield from client.attach(process_names(job))
        return env.now - t0

    _c, proc = run_tool(env, cluster, job, tool)
    job.start()
    env.run(until=proc)
    # At least the per-process structure cost was paid.
    assert proc.value >= SPEC.dpcl_client_per_process_cost
    env.run()


def test_install_probe_patches_only_target_rank():
    env = Environment()
    cluster, job = build_job(env, n_procs=4)
    target = job.tasks[2].name

    def tool(client):
        yield from client.connect(locations(job))
        yield from client.attach(process_names(job))
        yield from client.suspend(blocking=True)
        handles, failures = yield from client.install_probes(
            [(target, "work1", ENTRY, Const(0))]
        )
        assert failures == []
        yield from client.resume()
        return handles

    _c, proc = run_tool(env, cluster, job, tool)
    job.start()
    env.run(until=proc)
    handles = proc.value
    assert len(handles) == 1
    assert job.images[2].installed_probes == 1
    assert job.images[0].installed_probes == 0
    env.run()


def test_install_and_remove_roundtrip():
    env = Environment()
    cluster, job = build_job(env, n_procs=2)
    names = process_names(job)

    def tool(client):
        yield from client.connect(locations(job))
        yield from client.attach(names)
        yield from client.suspend(blocking=True)
        handles, failures = yield from client.install_probes(
            [(n, "work1", ENTRY, Const(0)) for n in names]
        )
        assert failures == []
        removed = yield from client.remove_probes(handles)
        yield from client.resume()
        return removed

    _c, proc = run_tool(env, cluster, job, tool)
    job.start()
    env.run(until=proc)
    assert proc.value == 2
    assert all(im.installed_probes == 0 for im in job.images)
    env.run()


def test_suspend_blocks_until_targets_parked():
    env = Environment()
    cluster, job = build_job(env, n_procs=4, work_time=20.0)

    def tool(client):
        yield from client.connect(locations(job))
        yield from client.attach(process_names(job))
        yield env.timeout(2.0)  # let the app get going
        yield from client.suspend(blocking=True)
        suspended_at = env.now
        assert all(t.is_parked for t in job.tasks)
        yield from client.resume()
        return suspended_at

    _c, proc = run_tool(env, cluster, job, tool)
    job.start()
    env.run(until=proc)
    assert all(not t.is_suspend_requested for t in job.tasks)
    env.run()
    # All ranks finished their full compute despite the suspension.
    assert all(p.value == "done" for p in job.procs)


def test_suspension_shows_as_inactivity():
    env = Environment()
    cluster, job = build_job(env, n_procs=2, work_time=20.0)

    def tool(client):
        yield from client.connect(locations(job))
        yield from client.attach(process_names(job))
        yield env.timeout(2.0)
        yield from client.suspend(blocking=True)
        yield env.timeout(3.0)  # "user thinks"
        yield from client.resume()

    _c, proc = run_tool(env, cluster, job, tool)
    job.start()
    env.run(until=proc)
    env.run()
    for task in job.tasks:
        assert task.total_suspended_time >= 2.9


def test_dpcl_callback_reaches_client():
    env = Environment()
    cluster, job = build_job(env, n_procs=2)
    names = process_names(job)

    def tool(client):
        yield from client.connect(locations(job))
        yield from client.attach(names)
        yield from client.suspend(blocking=True)
        snippet = CallFunc("DPCL_callback", [Const("hello")])
        yield from client.install_probes(
            [(n, "work2", ENTRY, snippet) for n in names]
        )
        yield from client.resume()
        return None

    client, proc = run_tool(env, cluster, job, tool)

    # Make ranks actually call work2 once, late enough that the tool has
    # finished installing the callback probe by then.
    def program(pctx):
        yield from pctx.call("MPI_Init")
        yield from pctx.compute(30.0)
        yield from pctx.call("work2")
        yield from pctx.call("MPI_Finalize")

    job.program = program
    job.start()
    env.run(until=proc)

    def waiter():
        msgs = yield from client.wait_callback(tag="hello", n=2)
        return msgs

    wproc = env.process(waiter())
    msgs = env.run(until=wproc)
    assert len(msgs) == 2
    assert {m.process_name for m in msgs} == set(names)
    env.run()


def test_asynchrony_daemons_see_requests_at_different_times():
    """The defining DPCL property: per-node message skew (Section 3.2)."""
    env = Environment()
    # Jitter explicitly on for this test; 16 ranks over 2 nodes.
    spec = SPEC
    cluster = Cluster(env, spec, seed=31)
    from repro.program import ExecutableImage

    exe = ExecutableImage("skew")
    exe.define("w")

    def program(pctx):
        yield from pctx.call("MPI_Init")
        yield from pctx.compute(30.0)
        yield from pctx.call("MPI_Finalize")

    job = MpiJob(env, cluster, exe, 16, program)

    suspend_times = {}

    class Obs:
        def __init__(self, name):
            self.name = name

        def on_suspended(self, task, start):
            suspend_times[self.name] = start

        def on_resumed(self, task, start, end):
            pass

    for t in job.tasks:
        t.observers.append(Obs(t.name))

    def tool(client):
        yield from client.connect({t.name: t.node for t in job.tasks})
        yield from client.attach([t.name for t in job.tasks])
        yield env.timeout(1.0)
        yield from client.suspend(blocking=True)
        yield from client.resume()

    client, proc = run_tool(env, cluster, job, tool)
    job.start()
    env.run(until=proc)
    env.run()
    times = sorted(suspend_times.values())
    assert len(times) == 16
    # Skew exists (different nodes, jittered daemon latency).
    assert times[-1] > times[0]


def test_ops_without_connect_fail():
    env = Environment()
    cluster, job = build_job(env, n_procs=2)

    def tool(client):
        try:
            yield from client.attach(process_names(job))
        except DpclError:
            return "rejected"

    _c, proc = run_tool(env, cluster, job, tool)
    job.start()
    env.run(until=proc)
    assert proc.value == "rejected"
    env.run()


def test_install_unknown_function_reports_daemon_error():
    env = Environment()
    cluster, job = build_job(env, n_procs=2)
    names = process_names(job)

    def tool(client):
        yield from client.connect(locations(job))
        yield from client.attach(names)
        _handles, failures = yield from client.install_probes(
            [(names[0], "no_such_fn", ENTRY, Const(0))]
        )
        try:
            raise_failures(failures)
        except DpclError as e:
            return str(e)

    _c, proc = run_tool(env, cluster, job, tool)
    job.start()
    env.run(until=proc)
    assert "no_such_fn" in proc.value
    env.run()
