"""The process-local metrics registry.

Every instrument lives in one :class:`MetricsRegistry`:

* **counters** — monotonically increasing totals (events processed,
  records appended, probes installed);
* **gauges** — level samples kept as high-water marks via
  :meth:`MetricsRegistry.gauge_max` (queue depths) or plain values via
  :meth:`MetricsRegistry.gauge_set`;
* **histograms** — fixed, caller-supplied bucket edges so two runs of
  the same simulation bucket identically (no adaptive resizing);
* **spans** — named phase durations (simulated seconds), aggregated as
  (count, total, max) so tracing a million wire deliveries stays O(1)
  in memory.

The registry never touches the simulation: it charges no cost, draws no
randomness, and schedules no events, so figures are bit-identical with
observation on or off.  The simulator reports into it through the
events of the :class:`~repro.obs.tap.Tap` it is installed in.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, ContextManager, Dict, List, Optional, Sequence, Tuple, Union

from . import tap as _tap

__all__ = [
    "MetricsRegistry",
    "Histogram",
    "get",
    "collecting",
    "merge_snapshots",
]


class Histogram:
    """A fixed-bucket histogram.

    ``edges`` are the inclusive upper bounds of the first ``len(edges)``
    buckets; one overflow bucket catches everything above the last edge.
    Edges are frozen at creation — determinism comes from never
    rebucketing.
    """

    __slots__ = ("edges", "counts", "count", "total")

    def __init__(self, edges: Sequence[float]) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError(f"histogram edges must be sorted and non-empty: {edges!r}")
        self.edges: Tuple[float, ...] = tuple(edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }


class MetricsRegistry:
    """Process-local counters, gauges, histograms and span aggregates."""

    __slots__ = ("enabled", "counters", "gauges", "histograms", "spans")

    def __init__(self) -> None:
        #: The tap tests exactly this attribute before instrumenting.
        self.enabled = True
        self.counters: Dict[str, Union[int, float]] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: name -> [count, total, max] of simulated-seconds durations.
        self.spans: Dict[str, List[float]] = {}

    # -- instruments ----------------------------------------------------------

    def inc(self, name: str, n: Union[int, float] = 1) -> None:
        """Add ``n`` to counter ``name`` (created at zero on first use)."""
        # try/except beats .get() here: counter names repeat, so the
        # KeyError path runs once per name and the hot path is a single
        # dict item operation.
        try:
            self.counters[name] += n
        except KeyError:
            self.counters[name] = n

    def gauge_set(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest observed value."""
        self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Keep gauge ``name`` as a high-water mark of observed values."""
        prev = self.gauges.get(name)
        if prev is None or value > prev:
            self.gauges[name] = value

    def observe(self, name: str, value: float, edges: Sequence[float]) -> None:
        """Record ``value`` in histogram ``name`` (created with ``edges``
        on first use; later ``edges`` arguments are ignored)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(edges)
        hist.observe(value)

    def span(self, name: str, duration: float) -> None:
        """Record one completed span of ``duration`` (simulated seconds)."""
        agg = self.spans.get(name)
        if agg is None:
            self.spans[name] = [1, duration, duration]
        else:
            agg[0] += 1
            agg[1] += duration
            if duration > agg[2]:
                agg[2] = duration

    # -- export / merge -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every instrument, keys sorted for stability."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].to_dict() for k in sorted(self.histograms)
            },
            "spans": {
                k: {"count": int(v[0]), "total": v[1], "max": v[2]}
                for k, v in sorted(self.spans.items())
            },
        }

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and span counts/totals add; gauges and span maxima take
        the maximum; histogram bucket counts add when the edges agree
        (mismatched edges replace nothing and raise, since silently
        dropping data would misreport coverage).
        """
        for name, value in snap.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge_max(name, value)
        for name, h in snap.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram(h["edges"])
            elif list(hist.edges) != list(h["edges"]):
                raise ValueError(
                    f"histogram {name!r}: cannot merge edges {h['edges']} "
                    f"into {list(hist.edges)}"
                )
            if len(h["counts"]) != len(hist.counts):
                # zip() would silently truncate a malformed bucket array,
                # under-reporting the very coverage this layer measures.
                raise ValueError(
                    f"histogram {name!r}: snapshot has "
                    f"{len(h['counts'])} bucket counts, expected "
                    f"{len(hist.counts)}"
                )
            hist.counts = [a + b for a, b in zip(hist.counts, h["counts"])]
            hist.count += h["count"]
            hist.total += h["total"]
        for name, s in snap.get("spans", {}).items():
            agg = self.spans.get(name)
            if agg is None:
                self.spans[name] = [s["count"], s["total"], s["max"]]
            else:
                agg[0] += s["count"]
                agg[1] += s["total"]
                if s["max"] > agg[2]:
                    agg[2] = s["max"]

    def reset(self) -> None:
        """Drop every instrument (a fresh registry, same identity)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.spans.clear()

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {len(self.counters)} counters, "
            f"{len(self.gauges)} gauges, {len(self.histograms)} histograms, "
            f"{len(self.spans)} spans>"
        )


def get() -> Any:
    """The current tap's registry (:data:`~repro.obs.tap.OFF` when
    observation is off)."""
    return _tap.get().obs


def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> ContextManager[MetricsRegistry]:
    """Install a (fresh by default) registry in the tap for a block; only
    objects *constructed inside* it observe into it (see
    :meth:`~repro.obs.tap.Slot.installed`)."""
    return _tap.installed("obs", registry if registry is not None else MetricsRegistry())


def merge_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge many :meth:`MetricsRegistry.snapshot` dicts into one."""
    merged = MetricsRegistry()
    for snap in snapshots:
        merged.merge_snapshot(snap)
    return merged.snapshot()
