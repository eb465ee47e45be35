"""repro.dynprof — the paper's contribution: dynamic instrumentation and
dynamic control of instrumentation for MPI/OpenMP applications.

* :class:`DynProf` — the DPCL-based dynamic instrumenter (Section 3).
* :mod:`~repro.dynprof.commands` — the Table 1 command language.
* :mod:`~repro.dynprof.bootstrap` — the Figure 6 MPI_Init/VT_init
  bootstrap snippets.
* :mod:`~repro.dynprof.policyspec` — the Table 3 instrumentation
  policies as data, and :mod:`~repro.dynprof.policies` — the Figure 7
  cell runner.
* :class:`DynamicControlMonitor` — the Figure 2 monitoring tool for
  dynamic control of instrumentation.

Each name loads its module on first use: the policy names come without
the tool and the simulator under it.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".tool": ("DynProf", "DynProfError"),
    ".commands": ("Command", "CommandError", "HELP_TEXT", "parse_command",
                  "parse_script"),
    ".timefile": ("Timefile", "TimedPhase"),
    ".policyspec": ("POLICIES", "PolicyResult", "policy_description"),
    ".policies": ("run_policy", "run_policy_job"),
    ".control": ("DynamicControlMonitor", "BreakpointVisit"),
    ".ephemeral": ("EphemeralProfiler", "SamplingReport"),
    ".bootstrap": ("mpi_init_bootstrap", "vt_init_bootstrap",
                   "bootstrap_anchor", "SPIN_VARIABLE", "INIT_CALLBACK_TAG"),
})
