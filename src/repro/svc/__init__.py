"""repro.svc — the local executors sweep points run on.

:mod:`repro.svc.executors` holds the :class:`ExecutorBackend` base and
its two implementations: :class:`SerialBackend` (in-process) and
:class:`ProcessPoolBackend` (one long-lived local process pool).
:class:`~repro.runner.SweepRunner` picks one from its ``jobs``.

Each name loads its module on first use, so a run served from the
cache never imports the executors.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".executors": ("ExecSpec", "ExecutorBackend", "SerialBackend",
                   "ProcessPoolBackend"),
})
