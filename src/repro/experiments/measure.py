"""The simulated cells behind Figures 8 and 9.

A ``confsync`` sweep point runs :func:`measure_confsync` and an
``instrument`` point :func:`measure_create_and_instrument`.  This
module loads the simulator; the figure modules, which only build grids
and read payloads back, do not.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from ..apps import AppSpec, get_app
from ..cluster import Cluster, MachineSpec, POWER3_SP
from ..dynprof.policies import _probe_stats_provider
from ..dynprof.tool import DynProf
from ..faults import FaultInjector, FaultPlan
from ..jobs import MpiJob, OmpJob
from ..obs.timeseries import MetricsSampler
from ..program import ExecutableImage
from ..simt import Environment
from ..vt import VTConfig, vt_confsync
from .fig8 import REPS

__all__ = [
    "measure_confsync",
    "measure_create_and_instrument",
    "measure_create_and_instrument_detail",
]


def _confsync_exe(n_funcs: int = 30) -> ExecutableImage:
    """A small statically instrumented target for the confsync runs."""
    exe = ExecutableImage("confsync-bench")
    for i in range(n_funcs):
        exe.define(f"phase{i:02d}")
    exe.instrument_statically()
    return exe


def measure_confsync(
    n_procs: int,
    machine: MachineSpec = POWER3_SP,
    change: bool = False,
    stats: bool = False,
    reps: int = REPS,
    seed: int = 0,
) -> float:
    """Average VT_confsync cost (max over ranks) for one configuration."""
    env = Environment()
    cluster = Cluster(env, machine, seed=seed)
    exe = _confsync_exe()

    # Alternating configurations so every epoch is a genuine change.
    configs = [VTConfig.all_off(), VTConfig.all_on()]

    def program(pctx) -> Generator:
        yield from pctx.call("MPI_Init")
        vt = pctx.image.vt
        rank = pctx.mpi.rank
        if change and rank == 0:
            state = {"i": 0}

            def hook(_pctx):
                cfg = configs[state["i"] % 2]
                state["i"] += 1
                return cfg

            vt.break_hook = hook
        comm = pctx.mpi.comm
        yield from comm.barrier()
        elapsed = []
        for _rep in range(reps):
            t0 = pctx.now
            yield from vt_confsync(pctx, write_stats=stats)
            elapsed.append(pctx.now - t0)
        yield from pctx.call("MPI_Finalize")
        return sum(elapsed) / len(elapsed)

    job = MpiJob(env, cluster, exe, n_procs, program)
    job.start()
    env.run(until=job.completion())
    env.run()
    return max(p.value for p in job.procs)


def measure_create_and_instrument_detail(
    app: AppSpec | str,
    n_cpus: int,
    machine: MachineSpec = POWER3_SP,
    scale: float = 0.02,
    seed: int = 0,
    faults: Optional[FaultPlan] = None,
) -> Dict[str, Any]:
    """One Figure 9 data point, with diagnostics.

    Returns ``{"time": ..., "faults": ...}`` where ``faults`` is the
    tool's fault report when an injection plan is armed, else None.
    """
    app = get_app(app) if isinstance(app, str) else app
    env = Environment()
    cluster = Cluster(env, machine, seed=seed)
    injector = FaultInjector.install(faults, cluster)
    exe = app.build_exe(False)
    program = app.make_program(n_cpus, scale)
    if app.kind == "mpi":
        job = MpiJob(env, cluster, exe, n_cpus, program, start_suspended=True)
    else:
        job = OmpJob(env, cluster, exe, n_cpus, program, start_suspended=True)
    # Same sampled-telemetry hook as run_policy_job: a no-op (None)
    # unless obs.timeseries sampling is enabled for this run.
    sampler = MetricsSampler.install(env,
                                     probe_stats=_probe_stats_provider(job))
    tool = DynProf(
        env, cluster, job,
        file_contents={"targets.txt": "\n".join(app.dynamic_targets)},
    )
    proc = tool.run_script("insert-file targets.txt\nstart\nquit\n")
    env.run(until=proc)
    assert tool.create_and_instrument_time is not None
    # Let the job drain so the environment ends cleanly.
    env.run(until=job.completion())
    if sampler is not None:
        sampler.stop()
    env.run()
    if sampler is not None:
        sampler.finish()
    report = tool.fault_report() if injector is not None else None
    return {"time": tool.create_and_instrument_time, "faults": report}


def measure_create_and_instrument(
    app: AppSpec | str,
    n_cpus: int,
    machine: MachineSpec = POWER3_SP,
    scale: float = 0.02,
    seed: int = 0,
    faults: Optional[FaultPlan] = None,
) -> float:
    """One Figure 9 data point: dynprof's create+instrument wall time.

    The application's own runtime is irrelevant here, so a tiny
    ``scale`` keeps the measurement cheap; the instrumentation time
    itself does not depend on the workload scale.
    """
    return measure_create_and_instrument_detail(
        app, n_cpus, machine=machine, scale=scale, seed=seed, faults=faults,
    )["time"]
