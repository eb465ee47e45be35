"""The one install slot every observation sink lives in.

The metrics registry, the causal tracer, the time-series recorder and
the replay recorder/controller share one lifecycle: a process-local
*current sink* that is :data:`OFF` until a context manager installs a
live one, and that instrumented components capture once at
construction.  Hot paths then test only ``sink.enabled`` (the tracer's
per-function sites also ``sink.fine``), so switched-off observation
costs one attribute check.

:data:`OFF` deliberately has no sink methods: a call that skipped its
``enabled`` guard raises :class:`AttributeError` instead of silently
costing a no-op call on every visit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, TypeVar

__all__ = ["OFF", "Slot"]

T = TypeVar("T")


class _Off:
    """The switched-off sink: flags only, no methods."""

    __slots__ = ()

    enabled = False
    fine = False

    def __repr__(self) -> str:
        return "<obs OFF>"


#: The shared switched-off sink of every slot.
OFF = _Off()


class Slot:
    """Holds one observation layer's current sink (:data:`OFF` when off)."""

    __slots__ = ("_sink",)

    def __init__(self) -> None:
        self._sink: Any = OFF

    def get(self) -> Any:
        """The current sink; capture it once, at construction time."""
        return self._sink

    @contextmanager
    def installed(self, sink: T) -> Iterator[T]:
        """Make ``sink`` current for the block, then restore the previous
        sink, so one sweep point's observation never leaks into the next."""
        previous = self._sink
        self._sink = sink
        try:
            yield sink
        finally:
            self._sink = previous
