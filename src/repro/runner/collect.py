"""Per-point attachments — one protocol for every measurement side channel.

A :class:`Collector` observes a sweep point while it runs and hands
the runner a JSON-safe *attachment* that rides the worker envelope
(``envelope["attachments"][collector.name]``), never the cached
payload.  The protocol has three parts:

* :meth:`Collector.open` — worker side: a context manager that installs
  the collector's sink for one point and yields a handle whose
  ``snapshot()`` is the attachment;
* :meth:`Collector.merge` — runner side: folds one point's attachment
  into the collector's sweep-wide result;
* :attr:`Collector.name` — the attachment's key in the envelope;
  :attr:`Collector.params` — the constructor arguments a pickle carries.

Sinks are entered in a fixed order (:attr:`Collector.rank`, lowest
outermost): the metrics registry first, the order recorder and the
replay controller last.  On exit the recorder's ``flush_obs`` and the
sampler's terminal sample write into the live registry, so the
registry must still be installed when the inner sinks close.

Only configuration crosses a process boundary: pickling a collector
rebuilds it from its params, so sweep-wide results merged so far never
travel to pool workers, and :func:`for_point` first trims each one to
what a single point needs (one replay log, not the sweep's).

The metrics, sampling and replay sinks are imported by
:meth:`Collector.open`, where a point runs: a run served from the cache
never loads them.
"""

from __future__ import annotations

import contextlib
import json
from typing import Any, ContextManager, Dict, Iterable, Iterator, List, Optional

from ..obs.trace import DEFAULT_CAPACITY, tracing
from .point import SweepPoint

__all__ = [
    "Collector",
    "MetricsCollector",
    "TraceCollector",
    "SampleCollector",
    "OrderCollector",
    "ReplayCollector",
    "for_point",
]


def _rebuild(cls: type, params: Dict[str, Any]) -> "Collector":
    return cls(**params)


class Collector:
    """Base class; subclasses set ``name``/``rank`` and implement
    :meth:`open` and :meth:`merge`."""

    name = "?"
    #: Entry order: lower ranks are entered first (outermost).
    rank = 0

    @property
    def params(self) -> Dict[str, Any]:
        """Constructor keyword arguments, JSON-safe."""
        return {}

    def for_point(self, point: SweepPoint) -> Optional["Collector"]:
        """The collector to ship with ``point``, or None to leave the
        point unobserved.  Most collectors observe every point alike."""
        return self

    def open(self, point: SweepPoint) -> ContextManager[Any]:
        raise NotImplementedError

    def merge(self, label: str, doc: Any) -> None:
        raise NotImplementedError

    def __reduce__(self) -> Any:
        return (_rebuild, (type(self), self.params))


class _PerLabel(Collector):
    """A collector whose sweep-wide result is one document per label."""

    def __init__(self) -> None:
        #: label -> attachment, for computed points only (cached points
        #: ran no simulation to observe).
        self.docs: Dict[str, Any] = {}

    def merge(self, label: str, doc: Any) -> None:
        self.docs[label] = doc


class MetricsCollector(Collector):
    """:mod:`repro.obs` counters, gauges, histograms and spans, merged
    across points into :attr:`registry`."""

    name = "obs"
    rank = 0

    def __init__(self) -> None:
        from ..obs import MetricsRegistry

        self.registry = MetricsRegistry()

    def open(self, point: SweepPoint) -> ContextManager[Any]:
        from ..obs import collecting

        return collecting()

    def merge(self, label: str, doc: Any) -> None:
        self.registry.merge_snapshot(doc)


class TraceCollector(_PerLabel):
    """A :mod:`repro.obs.trace` causal trace per point.

    The attachment is the trace document's JSON text (``json.dumps``,
    default separators), encoded once in the worker that traced the
    point: the parent writes it out as it is and never holds the
    document as objects."""

    name = "trace"
    rank = 1

    def __init__(self, detail: str = "fine",
                 capacity: int = DEFAULT_CAPACITY,
                 compact: bool = False) -> None:
        super().__init__()
        self.detail = detail
        self.capacity = capacity
        self.compact = compact

    @property
    def params(self) -> Dict[str, Any]:
        return {"detail": self.detail, "capacity": self.capacity,
                "compact": self.compact}

    @contextlib.contextmanager
    def open(self, point: SweepPoint) -> Iterator[Any]:
        with tracing(detail=self.detail, capacity=self.capacity,
                     compact=self.compact) as tracer:
            yield _JSONText(tracer)


class _JSONText:
    """A sink handle whose snapshot is the sink's document as JSON text."""

    __slots__ = ("sink",)

    def __init__(self, sink: Any) -> None:
        self.sink = sink

    def snapshot(self) -> str:
        return json.dumps(self.sink.snapshot(), check_circular=False)


class SampleCollector(_PerLabel):
    """A :mod:`repro.obs.timeseries` series document per point, sampled
    every ``interval`` simulated seconds."""

    name = "timeseries"
    rank = 2

    def __init__(self, interval: float) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be > 0")
        super().__init__()
        self.interval = interval

    @property
    def params(self) -> Dict[str, Any]:
        return {"interval": self.interval}

    def open(self, point: SweepPoint) -> ContextManager[Any]:
        from ..obs.timeseries import sampling

        return sampling(interval=self.interval)


class OrderCollector(_PerLabel):
    """A :mod:`repro.replay` order log (base64 RRLG) per point."""

    name = "order_log"
    rank = 3

    def open(self, point: SweepPoint) -> ContextManager[Any]:
        from ..replay.hooks import recording

        # Deterministic meta only (no wall clocks): recording the same
        # run twice must yield byte-identical logs.
        return recording(meta={
            "format": "repro.replay",
            "point": point.canonical(),
            "label": point.label,
        })


class ReplayCollector(_PerLabel):
    """Verifies each point whose label has a log in ``logs`` (base64
    RRLG) against it; a departure makes the point ``"diverged"``.
    :attr:`docs` holds ``{"decisions": n}`` per label checked."""

    name = "replay"
    rank = 4

    def __init__(self, logs: Dict[str, str]) -> None:
        super().__init__()
        self.logs = dict(logs)

    @property
    def params(self) -> Dict[str, Any]:
        return {"logs": self.logs}

    def for_point(self, point: SweepPoint) -> Optional[Collector]:
        log = self.logs.get(point.label)
        return None if log is None else ReplayCollector({point.label: log})

    def open(self, point: SweepPoint) -> ContextManager[Any]:
        from ..replay.hooks import replaying
        from ..replay.orderlog import OrderLog

        return replaying(OrderLog.from_b64(self.logs[point.label]))


def for_point(collectors: Iterable[Collector],
              point: SweepPoint) -> List[Collector]:
    """The collectors that observe ``point``, each trimmed to it."""
    trimmed = (c.for_point(point) for c in collectors)
    return [c for c in trimmed if c is not None]
