"""repro.faults — deterministic, seeded fault injection.

The layers above the cluster model only the happy path unless told
otherwise; this package schedules the unhappy ones — comm-daemon
crashes, control-message loss and delay, probe-install failures, rank
stalls and slowdowns, VT trace-buffer write failures — as first-class,
bit-reproducible simulation behaviour.

Usage::

    plan = FaultPlan.of(
        FaultSpec("daemon_crash", node=1),
        FaultSpec("message_loss", probability=0.01),
    )
    injector = FaultInjector.install(plan, cluster)   # None if plan empty
    ...
    injector.summary()   # {"daemon_crash": 12, "message_loss": 3}

See :mod:`repro.faults.plan` for the fault model and determinism
contract, and ``docs/faults.md`` for the recovery behaviour of each
hardened consumer (DPCL client retries, dynprof quarantine, runner
retry policy).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".plan": ("FaultPlan", "FaultSpec", "FAULT_KINDS", "CANNED_PLANS",
              "canned_plan"),
    ".injector": ("FaultInjector",),
})
