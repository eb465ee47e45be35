"""Text rendering of timelines, profiles, and trace-size reports.

The paper's VGV screenshots (Figure 4) become ASCII here: one lane per
process/thread, glyphs for computation / MPI / inactivity, plus a
GuideView-style profile table and the trace-volume report that motivates
the whole exercise ("2 megabytes per second ... impractical for all but
the shortest programs").
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..vt import TraceFile
from .profileview import ProfileView
from .timeline import Timeline

__all__ = [
    "render_timeline",
    "render_profile",
    "render_trace_report",
    "render_obs_report",
]


def render_timeline(timeline: Timeline, width: int = 100) -> str:
    """ASCII time-line: '#' computation, 'm' message events, '.' idle,
    ' ' (blank) suspension inactivity."""
    t0, t1 = timeline.span
    if t1 <= t0:
        return "(empty timeline)\n"
    span = t1 - t0

    def column(t: float) -> int:
        return min(width - 1, max(0, int((t - t0) / span * width)))

    lines = [f"timeline: {t0:.3f}s .. {t1:.3f}s  ({span:.3f}s, {width} cols)"]
    for (process, thread), bar in sorted(timeline.bars.items()):
        lane = ["."] * width
        for iv in bar.intervals:
            for c in range(column(iv.start), column(iv.end) + 1):
                lane[c] = "#"
        for op, s, e in bar.collectives:
            for c in range(column(s), column(e) + 1):
                lane[c] = "C"
        for msg in bar.messages:
            lane[column(msg.time)] = "m"
        for pause in bar.inactivity:
            for c in range(column(pause.start), column(pause.end) + 1):
                lane[c] = " "
        label = f"p{process}" + (f".t{thread}" if thread else "")
        lines.append(f"{label:>8s} |{''.join(lane)}|")
    lines.append("legend: '#' function  'C' collective  'm' message  ' ' suspended  '.' untraced")
    return "\n".join(lines) + "\n"


def render_profile(profile: ProfileView, top: int = 20) -> str:
    """GuideView-style per-function table."""
    rows = profile.top(top)
    total = profile.total_exclusive
    lines = [
        f"{'function':<36s} {'calls':>10s} {'incl(s)':>10s} {'excl(s)':>10s} {'excl%':>7s}",
        "-" * 78,
    ]
    for p in rows:
        pct = 100.0 * p.exclusive / total if total > 0 else 0.0
        lines.append(
            f"{p.name:<36.36s} {p.count:>10d} {p.inclusive:>10.4f} "
            f"{p.exclusive:>10.4f} {pct:>6.2f}%"
        )
    if profile.exclude_inactivity:
        lines.append("(suspension periods excluded from aggregate times)")
    return "\n".join(lines) + "\n"


def render_trace_report(trace: TraceFile, wall_time: Optional[float] = None) -> str:
    """Trace-volume report: records, bytes, and the per-process data rate."""
    lines = [
        f"trace of {trace.app_name}: {trace.n_processes} processes, "
        f"{trace.n_threads} threads",
        f"  raw records : {trace.raw_record_count:,}",
        f"  size        : {trace.size_bytes / 1e6:.2f} MB "
        f"({trace.record_bytes} B/record)",
    ]
    if wall_time and wall_time > 0 and trace.n_processes > 0:
        rate = trace.size_bytes / wall_time / trace.n_processes / 1e6
        lines.append(
            f"  data rate   : {rate:.2f} MB/s per process over {wall_time:.1f}s "
            f"(the paper cites ~2 MB/s as already impractical)"
        )
    return "\n".join(lines) + "\n"


def _fmt_number(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.6g}"
    return f"{int(value):,}"


def render_obs_report(snapshot: Dict[str, Any]) -> str:
    """Metrics section for a :meth:`repro.obs.MetricsRegistry.snapshot`.

    Counters and gauges become aligned name/value rows; spans show
    count / total / mean / max of their simulated durations; histograms
    collapse to count / total plus the occupied buckets.
    """
    lines = ["simulator metrics (repro.obs)"]
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    spans = snapshot.get("spans", {})
    histograms = snapshot.get("histograms", {})
    if not (counters or gauges or spans or histograms):
        lines.append("  (no metrics collected)")
        return "\n".join(lines) + "\n"
    for name in sorted(counters):
        lines.append(f"  {name:<28s} {_fmt_number(counters[name]):>14s}")
    for name in sorted(gauges):
        lines.append(f"  {name:<28s} {_fmt_number(gauges[name]):>14s}  (high water)")
    for name in sorted(spans):
        s = spans[name]
        mean = s["total"] / s["count"] if s["count"] else 0.0
        lines.append(
            f"  {name:<28s} {s['count']:>10,d} spans  "
            f"total {s['total']:.6f}s  mean {mean:.9f}s  max {s['max']:.9f}s"
        )
    for name in sorted(histograms):
        h = histograms[name]
        edges = h["edges"]
        occupied = [
            f"<={_fmt_number(edges[i])}: {c:,}" if i < len(edges) else f">{_fmt_number(edges[-1])}: {c:,}"
            for i, c in enumerate(h["counts"])
            if c
        ]
        lines.append(
            f"  {name:<28s} {h['count']:>10,d} samples  "
            f"[{', '.join(occupied) if occupied else 'empty'}]"
        )
    return "\n".join(lines) + "\n"
