"""The instrumentation policies of Table 3 and their runner.

=========  ==================================================================
Policy     Description
=========  ==================================================================
Full       All functions are statically instrumented.
Full-Off   All functions are statically instrumented but disabled using the
           configuration file.
Subset     All functions are statically instrumented with only an important
           subset left active.
None       No subroutine instrumentation is inserted.
Dynamic    The dynprof tool is used to dynamically instrument the same
           functions used by Subset.
=========  ==================================================================

``run_policy`` executes one (application, policy, CPU-count) cell of
Figure 7 and returns the measured times plus trace accounting.  As in
the paper, the reported program time excludes the time used to create
and insert the instrumentation (the target is suspended during
insertion), but *includes* the overhead incurred by the probes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..apps import AppSpec
from ..cluster import Cluster, MachineSpec, POWER3_SP
from ..faults import FaultInjector, FaultPlan
from ..jobs import MpiJob, OmpJob
from ..obs.timeseries import MetricsSampler
from ..simt import Environment
from ..vt import VTConfig
from .policyspec import POLICIES, PolicyResult, policy_description
from .tool import DynProf

__all__ = ["POLICIES", "PolicyResult", "run_policy", "run_policy_job",
           "policy_description"]


def _policy_build(app: AppSpec, policy: str):
    """(instrument_static, vt_config) for a Table 3 policy."""
    if policy == "Full":
        return True, VTConfig.all_on()
    if policy == "Full-Off":
        return True, VTConfig.all_off()
    if policy == "Subset":
        if not app.has_subset_policy:
            raise ValueError(f"{app.name} has no Subset version (see paper, 4.3)")
        return True, VTConfig.subset(app.subset)
    if policy == "None":
        return False, VTConfig.all_on()
    if policy == "Dynamic":
        # The Dynamic target binary carries no static subroutine probes.
        return False, VTConfig.all_on()
    raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")


def _probe_stats_provider(job):
    """A cumulative per-probe cost reader for the metrics sampler.

    Returns a callable yielding ``(name, pairs, inclusive_time,
    overhead_time)`` rows aggregated over the job's live VT states.
    Each recorded (begin, end) pair of an active probe charges
    ``2 × vt_active_event_cost`` of instrumentation time to its
    function — the direct trampoline/probe perturbation the paper's
    overhead numbers measure (buffer-flush and patch time are tracked
    separately as obs spans).
    """

    def probe_stats():
        totals: Dict[str, List[float]] = {}
        # MPI jobs carry one VT state per rank; OpenMP jobs a single
        # process-wide one (same duality the fault injector handles).
        vt_states = getattr(job, "vt_states", None)
        if vt_states is None:
            single = getattr(job, "vt", None)
            vt_states = [single] if single is not None else []
        for vt in vt_states:
            if vt is None:
                continue
            pair_cost = 2.0 * vt.spec.vt_active_event_cost
            for fid, st in vt.stats.items():
                name = vt.registry.name_of(fid)
                row = totals.get(name)
                if row is None:
                    row = totals[name] = [0.0, 0.0, 0.0]
                row[0] += st.count
                row[1] += st.inclusive_time
                row[2] += st.count * pair_cost
        return [
            (name, int(row[0]), row[1], row[2])
            for name, row in sorted(totals.items())
        ]

    return probe_stats


def run_policy(
    app: AppSpec,
    policy: str,
    n_cpus: int,
    scale: float = 1.0,
    machine: MachineSpec = POWER3_SP,
    seed: int = 0,
    faults: Optional[FaultPlan] = None,
) -> PolicyResult:
    """Run one (app, policy, CPUs) cell and collect the measurements."""
    result, _job = run_policy_job(
        app, policy, n_cpus, scale=scale, machine=machine, seed=seed,
        faults=faults,
    )
    return result


def run_policy_job(
    app: AppSpec,
    policy: str,
    n_cpus: int,
    scale: float = 1.0,
    machine: MachineSpec = POWER3_SP,
    seed: int = 0,
    faults: Optional[FaultPlan] = None,
):
    """Like :func:`run_policy`, but also returns the finished job.

    The job exposes artifacts the summary :class:`PolicyResult` cannot
    carry through the cache (its payload is the JSON ``to_dict`` form):
    most importantly ``job.trace``, the merged postmortem
    :class:`~repro.vt.buffer.TraceFile` the compaction experiments
    compress and cross-check.  Returns ``(result, job)``.
    """
    if n_cpus not in app.cpu_counts and n_cpus > max(app.cpu_counts):
        raise ValueError(f"{app.name} was not evaluated beyond {max(app.cpu_counts)} CPUs")
    env = Environment()
    cluster = Cluster(env, machine, seed=seed)
    injector = FaultInjector.install(faults, cluster)
    instrument_static, vt_config = _policy_build(app, policy)
    exe = app.build_exe(instrument_static)
    program = app.make_program(n_cpus, scale)

    if app.kind == "mpi":
        job = MpiJob(
            env, cluster, exe, n_cpus, program,
            vt_config=vt_config,
            start_suspended=(policy == "Dynamic"),
        )
    else:
        job = OmpJob(
            env, cluster, exe, n_cpus, program,
            vt_config=vt_config,
            start_suspended=(policy == "Dynamic"),
        )

    # Sampled telemetry: a no-op (None — zero events scheduled) unless
    # obs.timeseries sampling is enabled for this run.  The sampler
    # only reads simulation state, so payloads are identical either
    # way; install it before the run so the first window starts at 0.
    sampler = MetricsSampler.install(env, probe_stats=_probe_stats_provider(job))

    instrument_time: Optional[float] = None
    fault_report: Optional[Dict[str, Any]] = None
    if policy == "Dynamic":
        # Scripted dynprof session, exactly like the paper's batch runs:
        # instrument before the main computation via insert-file + start.
        tool = DynProf(
            env, cluster, job,
            file_contents={"targets.txt": "\n".join(app.dynamic_targets)},
        )
        tool_proc = tool.run_script("insert-file targets.txt\nstart\nquit\n")
        env.run(until=tool_proc)
        instrument_time = tool.create_and_instrument_time
        env.run(until=job.completion())
        if injector is not None:
            fault_report = tool.fault_report()
    else:
        job.start()
        env.run(until=job.completion())
    if sampler is not None:
        sampler.stop()  # withdraw the pending wakeup so the queue can drain
    env.run()  # drain (finalize flushes, daemons idle)
    if sampler is not None:
        sampler.finish()  # terminal sample: series telescope to the snapshot
    if injector is not None and fault_report is None:
        fault_report = {"injected": injector.summary()}

    if app.kind == "mpi":
        per_rank = [p.value for p in job.procs]
    else:
        per_rank = [job.proc.value]

    result = PolicyResult(
        app=app.name,
        policy=policy,
        n_cpus=n_cpus,
        scale=scale,
        time=max(per_rank),
        per_rank_times=per_rank,
        trace_records=job.trace.raw_record_count,
        trace_bytes=job.trace.size_bytes,
        instrument_time=instrument_time,
        faults=fault_report,
    )
    return result, job
