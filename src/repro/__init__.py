"""repro — Dynamic Instrumentation of Large-Scale MPI and OpenMP Applications.

A complete Python reproduction of Thiffault, Voss, Healey & Kim (IPPS
2003): the dynprof dynamic instrumenter, the DPCL daemon system, the
Vampirtrace library with dynamic control of instrumentation, Guide-style
OpenMP and a full MPI runtime — all running over a deterministic
discrete-event simulation of the paper's Power3 and IA32 testbeds —
plus analogs of the four ASCI kernel benchmarks and a harness that
regenerates every table and figure of the paper.

Typical entry points::

    from repro import Environment, Cluster, POWER3_SP, MpiJob, DynProf
    from repro.apps import SMG98
    from repro.dynprof import run_policy
    from repro.experiments import run_fig7

See README.md for a walkthrough and DESIGN.md for the architecture.
"""

from ._lazy import lazy_exports

__version__ = "1.1.0"

# Each name loads its subpackage on first use: a cached figure
# regeneration reads the runner and the machine specs, never the
# simulator below them.
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    # simulation
    ".simt": ("Environment", "RandomStreams"),
    # machine
    ".cluster": ("Cluster", "MachineSpec", "POWER3_SP", "IA32_LINUX",
                 "get_machine", "Node", "Placement", "Task"),
    # program model
    ".program": ("ExecutableImage", "ProcessImage", "ProgramContext"),
    # runtimes
    ".mpi": ("MpiWorld", "Communicator", "ANY_SOURCE", "ANY_TAG",
             "install_mpi_symbols"),
    ".openmp": ("OpenMPRuntime", "StaticSchedule", "DynamicSchedule",
                "GuidedSchedule"),
    # instrumentation stack
    ".vt": ("VTConfig", "VTProcessState", "TraceFile", "vt_confsync"),
    ".dpcl": ("DpclClient", "DaemonHost"),
    # the paper's tools
    ".dynprof": ("DynProf", "DynamicControlMonitor", "POLICIES",
                 "PolicyResult", "run_policy"),
    # job assembly
    ".jobs": ("MpiJob", "OmpJob", "install_omp_symbols"),
    # observability
    ".obs": ("obs", "MetricsRegistry"),
    # sweep engine
    ".runner": ("SweepRunner", "SweepPoint", "SweepError", "SweepTelemetry",
                "PointResult", "ResultCache", "point_key"),
})
__all__.insert(0, "__version__")
