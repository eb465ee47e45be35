"""repro.cluster — machine models: nodes, cores, interconnect, tasks.

Provides the simulated hardware substrate: :class:`MachineSpec` cost
models (with :data:`POWER3_SP` and :data:`IA32_LINUX` presets matching
the paper's testbeds), :class:`Cluster`/:class:`Node` topology, the
:class:`Interconnect` transfer model, and :class:`Task` — the execution
context every MPI rank and OpenMP thread runs in.

Each name loads its module on first use, so the machine specs, which
the CLI reads on every run, come without the runtime.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".machine": ("MachineSpec", "POWER3_SP", "IA32_LINUX", "MACHINES",
                 "get_machine"),
    ".node": ("Node",),
    ".interconnect": ("Interconnect",),
    ".topology": ("Cluster", "Placement"),
    ".task": ("Task", "TaskObserver"),
})
