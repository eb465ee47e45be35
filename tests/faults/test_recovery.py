"""Hardened recovery paths: client timeouts/retries, structured errors,
dynprof quarantine and partial coverage under injected faults."""

import pytest

from repro.apps import get_app
from repro.cluster import Cluster, POWER3_SP, Task
from repro.dpcl import (
    DaemonUnreachableError,
    DpclClient,
    DpclError,
    DpclRequestError,
    RequestPolicy,
    raise_failures,
)
from repro.dynprof import run_policy
from repro.faults import FaultInjector, FaultPlan, FaultSpec, canned_plan
from repro.jobs import MpiJob
from repro.program import ExecutableImage
from repro.simt import Environment

SPEC = POWER3_SP.with_overrides(net_jitter=0.0)

#: Timeout comfortably above any single daemon handler cost at this scale.
POLICY = RequestPolicy(timeout=10.0, max_retries=2, backoff=0.5)


def setup_world(n_procs=2, plan=None, seed=13, start_suspended=False):
    env = Environment()
    cluster = Cluster(env, SPEC, seed=seed)
    FaultInjector.install(plan, cluster)
    exe = ExecutableImage("recov")
    exe.define("looper")

    def program(pctx):
        yield from pctx.call("MPI_Init")
        for _ in range(30):
            yield from pctx.call("looper")
            yield from pctx.compute(1.0)
        yield from pctx.call("MPI_Finalize")
        return "done"

    job = MpiJob(env, cluster, exe, n_procs, program,
                 start_suspended=start_suspended)
    return env, cluster, job


def run_tool(env, cluster, job, body, policy=None):
    node = cluster.node(0)
    task = Task(env, node, "tool", SPEC, bind_core=False)
    client = DpclClient(env, cluster, node, job.daemon_host, policy=policy)

    def wrapped():
        return (yield from body(client))

    return client, task.start(wrapped())


def locations(job):
    return {t.name: t.node for t in job.tasks}


def test_request_policy_validation():
    with pytest.raises(ValueError, match="retries need a timeout"):
        RequestPolicy(max_retries=1)
    with pytest.raises(ValueError):
        RequestPolicy(timeout=-1.0)
    with pytest.raises(ValueError):
        RequestPolicy(timeout=1.0, max_retries=-1)
    # The default policy is the no-op pre-faults behaviour.
    assert RequestPolicy().timeout is None
    assert RequestPolicy().max_retries == 0


def test_connect_to_dead_daemon_raises_unreachable():
    """A permanently crashed daemon exhausts the retry budget and the
    client names the dead node instead of hanging forever."""
    # 16 ranks span two 8-core nodes; node 1's daemons never answer.
    plan = FaultPlan.of(FaultSpec("daemon_crash", node=1, start=0.0))
    env, cluster, job = setup_world(n_procs=16, plan=plan)
    job.start()
    caught = {}

    def body(client):
        _acks, failures = yield from client.connect(locations(job))
        try:
            raise_failures(failures)
        except DaemonUnreachableError as exc:
            caught["exc"] = exc
        return "out"

    client, proc = run_tool(env, cluster, job, body, policy=POLICY)
    env.run(until=proc)
    exc = caught["exc"]
    assert exc.nodes == (1,)
    assert exc.request == "ConnectReq"
    assert exc.attempts == POLICY.max_retries + 1
    assert "node(s) [1]" in str(exc)
    assert isinstance(exc, DpclError)  # old handlers still catch it
    assert client.retries == POLICY.max_retries
    env.run(until=job.completion())


def test_tolerant_connect_degrades_to_failure_map():
    plan = FaultPlan.of(FaultSpec("daemon_crash", node=1, start=0.0))
    env, cluster, job = setup_world(n_procs=16, plan=plan)
    job.start()
    out = {}

    def body(client):
        acks, failures = yield from client.connect(locations(job))
        out["acks"] = acks
        out["failures"] = failures
        return "ok"

    client, proc = run_tool(env, cluster, job, body, policy=POLICY)
    env.run(until=proc)
    assert sorted(a.node_index for a in out["acks"]) == [0]
    assert list(out["failures"]) == [1]
    assert "unreachable" in out["failures"][1].error
    # Node 0 is usable despite node 1 being gone.
    assert client.is_connected_to(job.tasks[0].name)
    assert not client.is_connected_to(job.tasks[8].name)
    env.run(until=job.completion())


def test_daemon_restart_is_survivable_with_retries():
    """Crash with a finite end: the first send wave is swallowed, a
    resend wave after the restart succeeds."""
    plan = FaultPlan.of(FaultSpec("daemon_crash", node=0, start=0.0, end=2.0))
    env, cluster, job = setup_world(n_procs=2, plan=plan)
    job.start()
    out = {}

    def body(client):
        acks, failures = yield from client.connect(locations(job))
        assert failures == {}
        out["acks"] = acks
        return "ok"

    client, proc = run_tool(
        env, cluster, job, body,
        policy=RequestPolicy(timeout=1.5, max_retries=3, backoff=0.5),
    )
    env.run(until=proc)
    assert [a.node_index for a in out["acks"]] == [0]
    assert client.retries >= 1  # at least one resend wave was needed
    env.run(until=job.completion())


def test_failed_request_error_carries_structured_context():
    """Satellite: bare error strings became structured request errors."""
    env, cluster, job = setup_world()
    job.start()
    caught = {}

    def body(client):
        yield from client.connect(locations(job))
        yield from client.attach([t.name for t in job.tasks])
        _handles, failures = yield from client.install_probes(
            [(job.tasks[0].name, "no_such_fn", "entry", None)]
        )
        try:
            raise_failures(failures)
        except DpclRequestError as exc:
            caught["exc"] = exc
        return "ok"

    client, proc = run_tool(env, cluster, job, body)
    env.run(until=proc)
    exc = caught["exc"]
    assert exc.node_index == 0
    assert exc.request == "InstallProbeReq"
    assert exc.process == job.tasks[0].name
    assert "no_such_fn" in str(exc)
    assert "no_such_fn" in exc.reason or "no_such_fn" in str(exc)
    env.run(until=job.completion())


def test_run_policy_quarantines_dead_node_and_reports_coverage():
    """The acceptance scenario: daemon crash mid-attach + 1% message
    loss; the Dynamic policy completes with the dead node's ranks
    quarantined, and the whole thing is bit-reproducible."""
    app = get_app("sweep3d")
    plan = canned_plan("daemon-crash-attach")

    def run():
        return run_policy(app, "Dynamic", 16, scale=0.02, faults=plan)

    result = run()
    report = result.faults
    assert report is not None
    assert report["degraded"] is True
    # 16 ranks on 8-core nodes: ranks 8..15 live on crashed node 1.
    assert report["quarantined_ranks"] == list(range(8, 16))
    assert report["coverage"] == pytest.approx(0.5)
    assert report["injected"].get("daemon_crash", 0) > 0
    # All ranks still ran to completion (quarantined ones uninstrumented).
    assert len(result.per_rank_times) == 16
    assert result.time > 0
    # Determinism: same plan + seed => bit-identical everything.
    again = run()
    assert again.time == result.time
    assert again.per_rank_times == result.per_rank_times
    assert again.faults == report


def test_run_policy_without_faults_has_no_report():
    app = get_app("smg98")
    result = run_policy(app, "Subset", 4, scale=0.02)
    assert result.faults is None


def test_raise_failures_prefers_refusal_and_names_every_silent_node():
    from repro.dpcl import Ack

    silent = Ack(7, 1, ok=False, error="daemon unreachable for ResumeReq",
                 error_info={"node": 1, "request": "ResumeReq",
                             "reason": "unreachable", "attempts": 3})
    refused = Ack(7, 2, ok=False, error="boom",
                  error_info={"node": 2, "request": "ResumeReq",
                              "process": "app[9]", "reason": "boom"})
    raise_failures({})  # nothing failed: nothing raised
    with pytest.raises(DpclRequestError) as exc:
        raise_failures({1: silent, 2: refused})
    assert str(exc.value) == "daemon on node 2: boom"
    assert (exc.value.node_index, exc.value.request, exc.value.process,
            exc.value.reason) == (2, "ResumeReq", "app[9]", "boom")
    with pytest.raises(DaemonUnreachableError) as exc:
        raise_failures({1: silent})
    assert (exc.value.nodes, exc.value.request, exc.value.attempts) == (
        (1,), "ResumeReq", 3)
    # install_probes' per-probe dicts: one silent node, many probes.
    probes = [dict(silent.error_info, process=f"app[{i}]", function="f",
                   error=silent.error) for i in range(3)]
    with pytest.raises(DaemonUnreachableError) as exc:
        raise_failures(probes)
    assert exc.value.nodes == (1,)


def test_strict_session_raises_what_a_degraded_one_quarantines():
    """DynProf settles request failures in one place: a fault-free
    (strict) session raises the structured error, a degraded one
    quarantines the ranks on the failed node."""
    from repro.dpcl import Ack
    from repro.dynprof import DynProf

    lost = {1: Ack(3, 1, ok=False, error="daemon unreachable for AttachReq",
                   error_info={"node": 1, "request": "AttachReq",
                               "reason": "unreachable", "attempts": 3})}

    def tool(plan):
        env, cluster, job = setup_world(n_procs=16, plan=plan,
                                        start_suspended=True)
        return DynProf(env, cluster, job)

    with pytest.raises(DaemonUnreachableError) as exc:
        tool(None)._settle(lost, "attach failed: {error}")
    assert exc.value.nodes == (1,) and exc.value.request == "AttachReq"
    degraded = tool(FaultPlan.of(FaultSpec("daemon_crash", node=1, start=0.0)))
    degraded._settle(lost, "attach failed: {error}")
    assert set(degraded.quarantined) == {
        t.name for t in degraded.job.tasks if t.node.index == 1
    }
    assert set(degraded.quarantined.values()) == {
        "attach failed: daemon unreachable for AttachReq"
    }


def degraded_sweep3d_session(script, crash_start, seed=3):
    """A 16-rank sweep3d dynprof session whose node-1 daemons crash at
    ``crash_start`` (simulated seconds) and stay down."""
    from repro.cluster import get_machine
    from repro.dynprof import DynProf

    app = get_app("sweep3d")
    env = Environment()
    cluster = Cluster(env, get_machine("power3-sp"), seed=seed)
    FaultInjector.install(
        FaultPlan.of(FaultSpec("daemon_crash", node=1, start=crash_start)),
        cluster,
    )
    job = MpiJob(env, cluster, app.build_exe(False), 16,
                 app.make_program(16, 0.02), start_suspended=True)
    tool = DynProf(env, cluster, job,
                   file_contents={"t": "\n".join(app.dynamic_targets)})
    env.run(until=tool.run_script(script))
    env.run(until=job.completion())
    return tool


def test_degraded_mid_run_remove_skips_quarantined_ranks():
    """A rank quarantined before attach has no image on the client; the
    mid-run remove must walk only the ranks the tool still controls."""
    tool = degraded_sweep3d_session(
        "insert-file t\nstart\nwait 1\nremove sweep*\nquit\n", crash_start=0.0
    )
    assert tool.state == "detached"
    assert set(tool.quarantined) == {f"sweep3d[{r}]" for r in range(8, 16)}
    # One entry + one exit probe on `sweep` per controlled rank.
    assert "removed 16 probes" in tool.output
    assert all(
        "sweep" not in functions for functions in tool.probe_inventory().values()
    )


def test_degraded_mid_run_resume_quarantines_and_releases_lost_node():
    """Node 1's daemons die while a mid-run patch holds the ranks
    suspended: the resume quarantines its ranks and releases them
    through the launcher, so the application still finishes."""
    script = "start\nwait 1\ninsert-file t\nquit\n"
    clean = degraded_sweep3d_session(script, crash_start=1e9)
    suspended = [p for p in clean.timefile.phases if p.name == "suspend"][0].end
    tool = degraded_sweep3d_session(script, crash_start=suspended)
    assert tool.state == "detached"
    assert tool.quarantined == {
        f"sweep3d[{r}]": "daemon unreachable at resume" for r in range(8, 16)
    }
    assert all(proc.value is not None for proc in tool.job.procs)
