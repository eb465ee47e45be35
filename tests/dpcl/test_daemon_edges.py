"""DPCL edge cases: activation toggles, detach persistence, re-attach,
multiple users, error paths."""


from repro.cluster import Cluster, POWER3_SP
from repro.dpcl import DpclClient, DpclError
from repro.jobs import MpiJob
from repro.program import ENTRY, CallFunc, Const, ExecutableImage
from repro.simt import Environment

SPEC = POWER3_SP.with_overrides(net_jitter=0.0)


def setup_world(n_procs=2, work=30.0):
    env = Environment()
    cluster = Cluster(env, SPEC, seed=13)
    exe = ExecutableImage("edges")
    exe.define("looper")

    def program(pctx):
        yield from pctx.call("MPI_Init")
        for _ in range(int(work)):
            yield from pctx.call("looper")
            yield from pctx.compute(1.0)
        yield from pctx.call("MPI_Finalize")
        return "done"

    job = MpiJob(env, cluster, exe, n_procs, program)
    return env, cluster, job


def run_tool(env, cluster, job, body, user="user"):
    from repro.cluster import Task

    node = cluster.node(0)
    task = Task(env, node, f"tool-{user}", SPEC, bind_core=False)
    client = DpclClient(env, cluster, node, job.daemon_host, user=user)

    def main():
        return (yield from body(client))

    return client, task.start(main())


def locations(job):
    return {t.name: t.node for t in job.tasks}


def names(job):
    return [t.name for t in job.tasks]


def test_activate_deactivate_roundtrip():
    env, cluster, job = setup_world()
    counts = []

    def body(client):
        yield from client.connect(locations(job))
        yield from client.attach(names(job))
        yield from client.suspend(blocking=True)
        handles, failures = yield from client.install_probes(
            [(n, "looper", ENTRY, CallFunc("count")) for n in names(job)],
            activate=False,
        )
        assert failures == []
        yield from client.resume()
        yield env.timeout(5.0)
        snap1 = len(counts)
        yield from client.set_probes_active(handles, True)
        yield env.timeout(5.0)
        snap2 = len(counts)
        yield from client.set_probes_active(handles, False)
        yield env.timeout(5.0)
        return snap1, snap2, len(counts)

    for image in job.images:
        image.register_runtime("count", lambda ctx: counts.append(1))
    client, proc = run_tool(env, cluster, job, body)
    job.start()
    snap1, snap2, final = env.run(until=proc)
    env.run()
    assert snap1 == 0          # installed but inactive: snippet never ran
    assert snap2 > snap1       # activation made it fire
    assert final - snap2 <= 1  # deactivation stopped it (1 in-flight ok)


def test_detach_leaves_probes_active():
    """The paper: 'All instrumentation that is active prior to quitting
    will remain active.'"""
    env, cluster, job = setup_world()

    def body(client):
        yield from client.connect(locations(job))
        yield from client.attach(names(job))
        yield from client.suspend(blocking=True)
        yield from client.install_probes(
            [(n, "looper", ENTRY, Const(0)) for n in names(job)]
        )
        yield from client.resume()
        n = yield from client.detach()
        return n

    client, proc = run_tool(env, cluster, job, body)
    job.start()
    detached = env.run(until=proc)
    env.run()
    assert detached == 2
    for image in job.images:
        assert image.installed_probes == 1
        tramp = image.func("looper").entry
        assert tramp is not None and tramp.has_active


def test_ops_after_detach_fail():
    env, cluster, job = setup_world()

    def body(client):
        yield from client.connect(locations(job))
        yield from client.attach(names(job))
        yield from client.detach()
        try:
            client.image_of(names(job)[0])
        except DpclError:
            return "rejected"

    client, proc = run_tool(env, cluster, job, body)
    job.start()
    assert env.run(until=proc) == "rejected"
    env.run()


def test_two_users_get_separate_comm_daemons():
    env, cluster, job = setup_world()
    results = {}

    def make_body(tag):
        def body(client):
            yield from client.connect(locations(job))
            yield from client.attach(names(job))
            results[tag] = client._find_daemon(0)
            return None

        return body

    c1, p1 = run_tool(env, cluster, job, make_body("alice"), user="alice")
    c2, p2 = run_tool(env, cluster, job, make_body("bob"), user="bob")
    job.start()
    env.run(until=p1)
    env.run(until=p2)
    env.run()
    assert results["alice"] is not results["bob"]
    assert results["alice"].user == "alice"


def test_connect_twice_is_idempotent():
    env, cluster, job = setup_world()

    def body(client):
        yield from client.connect(locations(job))
        return (yield from client.connect(locations(job)))

    client, proc = run_tool(env, cluster, job, body)
    job.start()
    assert env.run(until=proc) == ([], {})  # nothing new to connect
    env.run()


def test_suspend_of_finished_process_is_safe():
    env, cluster, job = setup_world(work=1.0)

    def body(client):
        yield from client.connect(locations(job))
        yield from client.attach(names(job))
        yield env.timeout(20.0)  # app has long finished
        n = yield from client.suspend(blocking=True)
        yield from client.resume()
        return n

    client, proc = run_tool(env, cluster, job, body)
    job.start()
    n = env.run(until=proc)
    env.run()
    assert n == 2  # acknowledged, no hang on dead targets


def test_remove_probe_idempotent_via_client():
    env, cluster, job = setup_world()

    def body(client):
        yield from client.connect(locations(job))
        yield from client.attach(names(job))
        yield from client.suspend(blocking=True)
        handles, failures = yield from client.install_probes(
            [(names(job)[0], "looper", ENTRY, Const(0))]
        )
        assert failures == []
        first = yield from client.remove_probes(handles)
        second = yield from client.remove_probes(handles)
        yield from client.resume()
        return first, second

    client, proc = run_tool(env, cluster, job, body)
    job.start()
    first, second = env.run(until=proc)
    env.run()
    assert first == 1 and second == 0


# ------------------------------------------------------ inferior calls


def test_execute_snippet_runs_in_target_address_space():
    from repro.program import Assign, Arith, Const, VarRef

    env, cluster, job = setup_world()
    target = names(job)[0]

    def body(client):
        yield from client.connect(locations(job))
        yield from client.attach(names(job))
        yield from client.suspend(blocking=True)
        # x = 40 + 2, evaluated inside the stopped target.
        result = yield from client.execute_snippet(
            target, Assign("x", Arith("+", Const(40), Const(2)))
        )
        readback = yield from client.execute_snippet(target, VarRef("x"))
        yield from client.resume()
        return result, readback

    client, proc = run_tool(env, cluster, job, body)
    job.start()
    result, readback = env.run(until=proc)
    env.run()
    assert result == 42 and readback == 42
    assert job.images[0].read_variable("x") == 42
    # Only the target process was touched.
    assert job.images[1].read_variable("x") == 0


def test_execute_snippet_can_call_vt_funcdef():
    from repro.program import CallFunc, Const

    env, cluster, job = setup_world()
    target = names(job)[0]

    def body(client):
        yield from client.connect(locations(job))
        yield from client.attach(names(job))
        yield from client.suspend(blocking=True)
        fid = yield from client.execute_snippet(
            target, CallFunc("VT_funcdef", [Const("looper")])
        )
        yield from client.resume()
        return fid

    client, proc = run_tool(env, cluster, job, body)
    job.start()
    fid = env.run(until=proc)
    env.run()
    assert fid is not None
    assert job.images[0].func("looper").fid == fid


def test_execute_snippet_rejects_blocking_code():
    from repro.program import SpinWait

    env, cluster, job = setup_world()
    target = names(job)[0]

    def body(client):
        yield from client.connect(locations(job))
        yield from client.attach(names(job))
        yield from client.suspend(blocking=True)
        try:
            yield from client.execute_snippet(target, SpinWait("never_set"))
        except DpclError as e:
            return str(e)
        finally:
            yield from client.resume()

    client, proc = run_tool(env, cluster, job, body)
    job.start()
    error = env.run(until=proc)
    env.run()
    assert "cannot wait" in error


def test_execute_snippet_requires_stopped_target():
    from repro.program import Const

    env, cluster, job = setup_world()
    target = names(job)[0]

    def body(client):
        yield from client.connect(locations(job))
        yield from client.attach(names(job))
        yield env.timeout(2.0)  # target is running
        try:
            yield from client.execute_snippet(target, Const(1))
        except DpclError as e:
            return str(e)

    client, proc = run_tool(env, cluster, job, body)
    job.start()
    error = env.run(until=proc)
    env.run()
    assert "must be stopped" in error
