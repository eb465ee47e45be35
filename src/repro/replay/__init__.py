"""Record-and-replay: partial-order recording, divergence detection,
fault-plan bisection.

The simulations are deterministic by construction, so "replay" here is
*verified re-execution*: an :class:`~repro.replay.hooks.OrderRecorder`
logs every nondeterminism decision of a run — which event the engine
drained, how each message matched, every fault-injector draw — into a
compact :class:`~repro.replay.orderlog.OrderLog`, and a
:class:`~repro.replay.hooks.ReplayController` re-runs the point while
checking each decision against the log, raising a structured
:class:`~repro.replay.errors.DivergenceError` at the first mismatch.
On top of that, :func:`~repro.replay.bisect.bisect_plan` delta-debugs
a failing fault plan to a minimal failing subset.  See
``docs/replay.md``.

Each name loads its module on first use (:mod:`~repro.replay.bisect`
imports the worker, which imports this package for its record/replay
plumbing).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".errors": ("DivergenceError",),
    ".orderlog": ("Decision", "OrderLog", "CHANNEL_NAMES", "CH_EVENT",
                  "CH_DELIVER", "CH_MATCH", "CH_FAULT"),
    ".hooks": ("OrderRecorder", "ReplayController", "get", "recording",
               "replaying"),
    ".bisect": ("BisectResult", "bisect_plan", "ddmin", "point_with_faults"),
})
