"""Tracing-disabled overhead benchmarks.

The causal tracer's contract is that with tracing off (the default,
the shared ``OFF`` sink) every instrumented hot path pays exactly one
attribute check. These benchmarks pin that: the probe hot path with
the trace guards compiled in must perform within noise of the same
path hammering an enabled tracer's guard-only branch — and, more
importantly, they give CI a number to watch if someone ever puts work
in front of the ``enabled`` check.
"""

from repro.cluster import Cluster, POWER3_SP, Task
from repro.obs import trace as obs_trace
from repro.program import ExecutableImage, ProcessImage, ProgramContext
from repro.simt import Environment
from repro.vt import FunctionRegistry, VTProcessState


def _probe_rig():
    env = Environment()
    cluster = Cluster(env, POWER3_SP, seed=0)
    exe = ExecutableImage("trace-bench")
    exe.define("f")
    exe.instrument_statically()
    task = Task(env, cluster.node(0), "t", POWER3_SP)
    image = ProcessImage(env, exe, "t")
    pctx = ProgramContext(env, task, image, POWER3_SP)
    vt = VTProcessState(env, POWER3_SP, image, 0, FunctionRegistry())
    vt.initialize(task)
    return pctx, vt, image.func("f")


def test_probe_hot_path_tracing_disabled(benchmark):
    """The guarded probe path against the ``OFF`` sink."""
    assert not obs_trace.get().enabled
    pctx, vt, fi = _probe_rig()

    def run():
        for _ in range(5_000):
            vt.probe_begin(pctx, fi)
            vt.probe_end(pctx, fi)

    benchmark(run)
    assert vt.stats[fi.fid].count >= 5_000


def test_probe_hot_path_tracing_enabled_coarse(benchmark):
    """Same path with a live coarse tracer: only the drop-immune
    counters fire (no per-function ring events), so the delta over the
    disabled benchmark is the full cost of having tracing on."""
    with obs_trace.tracing(detail="coarse") as tracer:
        pctx, vt, fi = _probe_rig()

        def run():
            for _ in range(5_000):
                vt.probe_begin(pctx, fi)
                vt.probe_end(pctx, fi)

        benchmark(run)
    assert tracer.counts["vt.probe_events"] >= 10_000
