"""repro.runner — parallel sweep execution with content-addressed caching.

The figure harness expresses every experiment as a grid of
:class:`SweepPoint`s and hands the grid to a :class:`SweepRunner`,
which fans points out over a process pool, memoizes each result on
disk under a stable SHA-256 key, survives worker crashes and per-point
timeouts, and streams JSON-lines telemetry.  Determinism of the
underlying simulation makes the parallel path bit-identical to the
serial one and makes cached results valid forever.

Measurement rides along through :mod:`repro.runner.collect`: each
collector observes computed points and merges their attachments.

See ``docs/runner.md`` for the cache-key anatomy, the worker model and
the failure semantics.
"""

from .cache import ResultCache, default_cache_dir, point_key
from .collect import (
    Collector,
    MetricsCollector,
    OrderCollector,
    ReplayCollector,
    SampleCollector,
    TraceCollector,
)
from .point import SweepPoint
from .retry import RetryPolicy
from .runner import PointResult, SweepError, SweepRunner, default_jobs
from .telemetry import SweepTelemetry, read_telemetry
from .worker import execute_point

__all__ = [
    "SweepPoint",
    "SweepRunner",
    "PointResult",
    "SweepError",
    "RetryPolicy",
    "ResultCache",
    "SweepTelemetry",
    "point_key",
    "default_cache_dir",
    "default_jobs",
    "execute_point",
    "read_telemetry",
    "Collector",
    "MetricsCollector",
    "TraceCollector",
    "SampleCollector",
    "OrderCollector",
    "ReplayCollector",
]
