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

The bisection driver is exported lazily: it imports the worker, which
imports this package for its record/replay plumbing.
"""

from .errors import DivergenceError
from .hooks import (
    OrderRecorder,
    ReplayController,
    get,
    recording,
    replaying,
)
from .orderlog import (
    CH_DELIVER,
    CH_EVENT,
    CH_FAULT,
    CH_MATCH,
    CHANNEL_NAMES,
    Decision,
    OrderLog,
)

__all__ = [
    "DivergenceError",
    "Decision",
    "OrderLog",
    "OrderRecorder",
    "ReplayController",
    "CHANNEL_NAMES",
    "CH_EVENT",
    "CH_DELIVER",
    "CH_MATCH",
    "CH_FAULT",
    "get",
    "recording",
    "replaying",
    "BisectResult",
    "bisect_plan",
    "ddmin",
    "point_with_faults",
]

_LAZY = {"BisectResult", "bisect_plan", "ddmin", "point_with_faults"}


def __getattr__(name):
    if name in _LAZY:
        from . import bisect as _bisect

        return getattr(_bisect, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
