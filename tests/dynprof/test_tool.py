"""End-to-end tests for the dynprof tool (Sections 3.3/3.4)."""

import fnmatch

import pytest

from repro.apps import SMG98, SWEEP3D, UMT98
from repro.cluster import Cluster, POWER3_SP
from repro.dynprof import DynProf, DynProfError
from repro.jobs import MpiJob, OmpJob
from repro.simt import Environment
from repro.vt import EnterRecord

SPEC = POWER3_SP.with_overrides(net_jitter=0.02)
SCALE = 0.05


def make_dynamic_job(app, n_cpus, env=None, scale=SCALE, seed=3):
    env = env if env is not None else Environment()
    cluster = Cluster(env, SPEC, seed=seed)
    exe = app.build_exe(False)  # Dynamic targets an uninstrumented binary
    program = app.make_program(n_cpus, scale)
    if app.kind == "mpi":
        job = MpiJob(env, cluster, exe, n_cpus, program, start_suspended=True)
    else:
        job = OmpJob(env, cluster, exe, n_cpus, program, start_suspended=True)
    return env, cluster, job


def run_session(app, n_cpus, script, **kw):
    env, cluster, job = make_dynamic_job(app, n_cpus, **kw)
    tool = DynProf(
        env, cluster, job,
        file_contents={"targets.txt": "\n".join(app.dynamic_targets)},
    )
    proc = tool.run_script(script)
    env.run(until=proc)
    env.run(until=job.completion())
    env.run()
    return env, job, tool


def test_requires_start_suspended_job():
    env = Environment()
    cluster = Cluster(env, SPEC, seed=1)
    exe = SWEEP3D.build_exe(False)
    job = MpiJob(env, cluster, exe, 2, SWEEP3D.make_program(2, SCALE))
    with pytest.raises(DynProfError, match="start_suspended"):
        DynProf(env, cluster, job)


def test_full_session_instruments_and_traces():
    env, job, tool = run_session(SWEEP3D, 4, "insert-file targets.txt\nstart\nquit\n")
    assert tool.state == "detached"
    # Every rank got probes on the dynamic targets (entry+exit each).
    for image in job.images:
        assert image.installed_probes > 2 * 15  # bootstrap + targets
    # And the run produced real subroutine trace records.
    kinds = {type(r).__name__ for _p, _t, r in job.trace.all_records()}
    assert "EnterRecord" in kinds or "BatchPairRecord" in kinds
    # All ranks completed their main computation.
    assert all(p.value > 0 for p in job.procs)


def test_prestart_inserts_are_queued_until_safe():
    env, cluster, job = make_dynamic_job(SWEEP3D, 2)
    tool = DynProf(env, cluster, job)

    captured = {}

    def session():
        yield from tool._spawn()
        yield from tool.execute(__import__("repro.dynprof.commands", fromlist=["parse_command"]).parse_command("insert sweep"))
        # Before start: nothing installed beyond the bootstrap probe.
        captured["queued"] = list(tool._queued)
        captured["probes_before"] = [im.installed_probes for im in job.images]
        yield from tool.execute(__import__("repro.dynprof.commands", fromlist=["parse_command"]).parse_command("start"))
        captured["probes_after"] = [im.installed_probes for im in job.images]

    proc = tool.task.start(session())
    env.run(until=proc)
    env.run(until=job.completion())
    env.run()
    assert captured["queued"] == ["sweep"]
    assert captured["probes_before"] == [1, 1]       # just the bootstrap
    assert captured["probes_after"] == [3, 3]        # + entry/exit of sweep


def test_queued_remove_cancels_queued_insert():
    env, cluster, job = make_dynamic_job(SWEEP3D, 2)
    tool = DynProf(env, cluster, job)
    from repro.dynprof.commands import parse_command

    def session():
        yield from tool._spawn()
        yield from tool.execute(parse_command("insert sweep source"))
        yield from tool.execute(parse_command("remove source"))
        yield from tool.execute(parse_command("start"))
        return list(tool._queued)

    proc = tool.task.start(session())
    env.run(until=proc)
    env.run(until=job.completion())
    env.run()
    # Only 'sweep' was installed (bootstrap + 2).
    assert all(im.installed_probes == 3 for im in job.images)


def test_bootstrap_resynchronises_ranks():
    """Fig. 6: despite skewed spin releases, ranks re-barrier before
    main computation, so per-rank elapsed times stay balanced."""
    env, job, tool = run_session(SWEEP3D, 8, "insert-file targets.txt\nstart\nquit\n")
    times = [p.value for p in job.procs]
    assert max(times) < min(times) * 1.25


def test_create_and_instrument_time_recorded():
    env, job, tool = run_session(SWEEP3D, 4, "insert-file targets.txt\nstart\nquit\n")
    assert tool.create_and_instrument_time is not None
    assert tool.create_and_instrument_time > 1.0  # poe + attach + patch
    # The timefile has the expected phases.
    names = {p.name for p in tool.timefile.phases}
    assert {"create", "connect", "attach", "bootstrap", "start",
            "init-callbacks", "instrument", "release"} <= names
    text = tool.timefile.render()
    assert "create" in text and "instrument" in text


def test_instrument_time_grows_with_mpi_processes():
    """Figure 9: more MPI processes -> more images to walk and patch."""

    def t(n):
        _env, _job, tool = run_session(SWEEP3D, n, "insert-file targets.txt\nstart\nquit\n")
        return tool.create_and_instrument_time

    assert t(8) > t(2) * 1.5


def test_glob_resolution_does_not_scale_with_mpi_processes(monkeypatch):
    """Simulated patch time grows with P (above); host glob work must not."""
    real = fnmatch.fnmatchcase
    calls = []

    def counting(name, pattern):
        calls.append(pattern)
        return real(name, pattern)

    monkeypatch.setattr(fnmatch, "fnmatchcase", counting)

    def glob_calls(n):
        calls.clear()
        _env, job, _tool = run_session(SMG98, n, "insert hypre_SMGSolveLevel*\nstart\nquit\n")
        assert all(image.installed_probes > 2 * 20 for image in job.images)
        return len(calls)

    at_2 = glob_calls(2)
    assert at_2 > 0
    assert glob_calls(8) == at_2


def test_omp_single_image_instrumentation():
    env, job, tool = run_session(UMT98, 4, "insert-file targets.txt\nstart\nquit\n")
    # One shared image: bootstrap + 2 probes per dynamic target.
    assert job.image.installed_probes == 1 + 2 * len(UMT98.dynamic_targets)
    assert job.proc.value > 0


def test_midrun_insert_suspends_and_resumes():
    env, cluster, job = make_dynamic_job(SWEEP3D, 4, scale=0.2)
    tool = DynProf(env, cluster, job)
    from repro.dynprof.commands import parse_command

    def session():
        yield from tool._spawn()
        yield from tool.execute(parse_command("start"))
        yield from tool.execute(parse_command("wait 5"))
        yield from tool.execute(parse_command("insert sweep"))
        yield from tool.execute(parse_command("wait 5"))
        yield from tool.execute(parse_command("remove sweep"))
        yield from tool.execute(parse_command("quit"))

    proc = tool.task.start(session())
    env.run(until=proc)
    env.run(until=job.completion())
    env.run()
    # The mid-run patch suspended every rank at least once (dynprof's
    # stop-patch-continue), visible as inactivity.
    assert all(len(t.suspensions) >= 1 for t in job.tasks)
    # Probes were installed then removed: only the bootstrap remains.
    assert all(im.installed_probes == 1 for im in job.images)


def test_warning_on_unmatched_function():
    env, job, tool = run_session(
        SWEEP3D, 2,
        "insert no_such_function_anywhere\nstart\nquit\n",
    )
    assert any("no functions match" in line for line in tool.output)


def test_help_command_emits_table1():
    env, job, tool = run_session(SWEEP3D, 2, "help\nstart\nquit\n")
    help_text = "\n".join(tool.output)
    for verb in ("insert-file", "remove-file", "wait", "quit"):
        assert verb in help_text


def test_probe_inventory_reflects_tool_view():
    env, job, tool = run_session(SWEEP3D, 2, "insert sweep inner\nstart\nquit\n")
    inventory = tool.probe_inventory()
    assert set(inventory) == {t.name for t in job.tasks}
    for per_proc in inventory.values():
        # entry + exit handles per function.
        assert per_proc == {"sweep": 2, "inner": 2}


def test_handles_belong_to_their_process_on_uneven_nodes():
    # 12 ranks on 8-CPU nodes put 8 + 4 per node: the lighter daemon
    # acks first, yet each handle must land under its own process.
    env, job, tool = run_session(SWEEP3D, 12, "insert-file targets.txt\nstart\n",
                                 scale=0.02)
    assert tool._handles
    for (pname, fname), handles in tool._handles.items():
        for handle in handles:
            assert (handle.image_name, handle.function) == (pname, fname)
