"""Trace analysis: utilization, critical path, perturbation attribution.

Works directly on the JSON-safe documents :meth:`Tracer.snapshot`
produces (the same objects that ride the worker envelope and land in
``<label>.trace.json``), so a trace can be analysed in-process right
after a run or reloaded from disk later.

* :func:`track_utilization` — per-track busy time (union of recorded
  spans) over the traced interval;
* :func:`critical_path` — a backward walk over the span + flow-edge
  DAG from the last recorded event, hopping tracks along flow edges
  (a rank that was idle before a delivery was *waiting on the
  sender*, so the path continues there);
* :func:`perturbation_report` — where the instrumentation overhead
  went: probe events, trampolines, VT buffer flushes, patch windows
  and suspensions vs. application compute — the quantitative form of
  the paper's Figure 7/8 perturbation story.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .tap import TOOL_PID

__all__ = [
    "flow_pairs",
    "track_utilization",
    "critical_path",
    "perturbation_report",
    "render_trace_summary",
]

#: Categories attributed to instrumentation (not application compute).
INSTRUMENTATION_CATEGORIES = (
    "vt.flush",
    "vt.confsync",
    "dynprof",
    "suspended",
)


def _check(doc: Dict[str, Any]) -> None:
    if doc.get("kind") != "repro.trace":
        raise ValueError("not a repro trace document")


def _span_bounds(doc: Dict[str, Any]) -> Tuple[float, float]:
    t0, t1 = float("inf"), float("-inf")
    for track in doc["tracks"]:
        for ev in track["events"]:
            t0 = min(t0, ev["ts"])
            t1 = max(t1, ev["ts"] + ev.get("dur", 0.0))
    if t1 <= t0:
        return 0.0, 0.0
    return t0, t1


def flow_pairs(doc: Dict[str, Any]) -> Dict[int, Dict[str, List[Dict[str, Any]]]]:
    """Flow id -> its start and end events (each annotated with pid/tid).

    The integrity property the test suite pins: in a run with no ring
    drops every flow id has exactly one start, and every end references
    an existing start.
    """
    _check(doc)
    pairs: Dict[int, Dict[str, List[Dict[str, Any]]]] = {}
    for track in doc["tracks"]:
        for ev in track["events"]:
            if ev["ph"] not in ("fs", "ff"):
                continue
            entry = pairs.setdefault(ev["id"], {"starts": [], "ends": []})
            side = "starts" if ev["ph"] == "fs" else "ends"
            side_ev = dict(ev)
            side_ev["pid"] = track["pid"]
            side_ev["tid"] = track["tid"]
            entry[side].append(side_ev)
    return pairs


def track_utilization(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-track busy time: the union of recorded spans over the traced
    interval (overlapping/nested spans are not double-counted)."""
    _check(doc)
    t0, t1 = _span_bounds(doc)
    elapsed = t1 - t0
    rows: List[Dict[str, Any]] = []
    for track in doc["tracks"]:
        intervals = sorted(
            (ev["ts"], ev["ts"] + ev.get("dur", 0.0))
            for ev in track["events"] if ev["ph"] == "span"
        )
        busy = 0.0
        cursor = float("-inf")
        for s, e in intervals:
            if s > cursor:
                busy += e - s
                cursor = e
            elif e > cursor:
                busy += e - cursor
                cursor = e
        rows.append({
            "pid": track["pid"],
            "tid": track["tid"],
            "name": track["name"],
            "events": len(track["events"]),
            "dropped": track["dropped"],
            "busy": busy,
            "elapsed": elapsed,
            "utilization": busy / elapsed if elapsed > 0 else 0.0,
        })
    return rows


def critical_path(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Extract the critical path through the span + flow-edge DAG.

    Backward walk from the globally last-ending event: on each track the
    path consumes the latest event finishing at or before the cursor; a
    flow end switches the walk to the track (and time) of the matching
    flow start — the delivery could not have happened before the send.
    Deterministic (ring order breaks timestamp ties) and linear in the
    number of recorded events.

    Returns ``{"path": [...], "elapsed", "span_time", "by_category",
    "tracks_visited"}`` with the path in chronological order.
    """
    _check(doc)
    # Per-track event lists in (ts, emission-order) order, plus the
    # flow-start location index for the track hops.
    tracks: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    flow_start_at: Dict[int, Tuple[Tuple[int, int], int]] = {}
    for track in doc["tracks"]:
        key = (track["pid"], track["tid"])
        events = [dict(ev) for ev in track["events"]]
        for ev in events:
            ev["_end"] = ev["ts"] + ev.get("dur", 0.0)
            ev["_track"] = key
            ev["_name"] = track["name"]
        events.sort(key=lambda e: e["_end"])
        for i, ev in enumerate(events):
            ev["_idx"] = i
            if ev["ph"] == "fs":
                flow_start_at.setdefault(ev["id"], (key, i))
        tracks[key] = events

    # The globally last-ending event starts the walk.
    last: Optional[Dict[str, Any]] = None
    for events in tracks.values():
        if events and (last is None or events[-1]["_end"] > last["_end"]):
            last = events[-1]
    if last is None:
        return {"path": [], "elapsed": 0.0, "span_time": 0.0,
                "by_category": {}, "tracks_visited": 0}

    path: List[Dict[str, Any]] = []
    cur = last
    visited_tracks = {cur["_track"]}
    guard = sum(len(evs) for evs in tracks.values()) + 1
    while cur is not None and guard > 0:
        guard -= 1
        path.append(cur)
        if cur["ph"] == "ff" and cur["id"] in flow_start_at:
            key, idx = flow_start_at[cur["id"]]
            cur = tracks[key][idx]
            visited_tracks.add(key)
            continue
        # Latest event on the same track ending at or before this one
        # starts (spans) / happens (points).
        events = tracks[cur["_track"]]
        horizon = cur["ts"]
        prev = None
        for i in range(cur["_idx"] - 1, -1, -1):
            if events[i]["_end"] <= horizon:
                prev = events[i]
                break
        cur = prev

    path.reverse()
    by_cat: Dict[str, float] = {}
    for ev in path:
        if ev["ph"] == "span":
            dur = ev.get("dur", 0.0)
            by_cat[ev["cat"]] = by_cat.get(ev["cat"], 0.0) + dur
    return {
        "path": [
            {
                "pid": ev["_track"][0],
                "tid": ev["_track"][1],
                "track": ev["_name"],
                "ph": ev["ph"],
                "name": ev["name"],
                "cat": ev["cat"],
                "ts": ev["ts"],
                "dur": ev.get("dur", 0.0),
            }
            for ev in path
        ],
        "elapsed": path[-1]["_end"] - path[0]["ts"] if path else 0.0,
        "span_time": sum(by_cat.values()),
        "by_category": dict(sorted(by_cat.items())),
        "tracks_visited": len(visited_tracks),
    }


def perturbation_report(doc: Dict[str, Any],
                        elapsed: Optional[float] = None) -> Dict[str, Any]:
    """Attribute instrumentation perturbation from the drop-immune
    aggregates: probe events, trampoline traversals, VT flushes, patch
    windows, suspensions — vs. everything else (application compute).

    ``elapsed`` is the run's simulated duration (per rank, the paper's
    reported program time); defaults to the traced interval.  The
    component times are summed over every rank, so they are compared
    against ``elapsed`` times the number of rank tracks (CPU-seconds).
    The aggregates come from :attr:`Tracer.totals` and
    :attr:`Tracer.counts`, so ring-buffer eviction never skews them.
    """
    _check(doc)
    totals = doc.get("totals", {})
    counts = doc.get("counts", {})
    if elapsed is None:
        t0, t1 = _span_bounds(doc)
        elapsed = t1 - t0
    ranks = len({t["pid"] for t in doc["tracks"] if t["pid"] != TOOL_PID})
    ranks = max(ranks, 1)
    cpu_seconds = elapsed * ranks

    def total_of(prefix: str) -> float:
        return sum(
            v["total"] for cat, v in totals.items()
            if cat == prefix or cat.startswith(prefix + ".")
        )

    components = {
        "probes": float(counts.get("vt.probe_time", 0.0)),
        "trampolines": float(counts.get("tramp.time", 0.0)),
        "vt_flushes": total_of("vt.flush"),
        "confsync": total_of("vt.confsync"),
        "patch_windows": total_of("dynprof"),
        "suspended": total_of("suspended"),
    }
    instrumentation = sum(components.values())
    application = max(cpu_seconds - instrumentation, 0.0)
    return {
        "elapsed": elapsed,
        "ranks": ranks,
        "cpu_seconds": cpu_seconds,
        "components": components,
        "event_counts": {
            "probe_events": counts.get("vt.probe_events", 0),
            "trampoline_firings": counts.get("tramp.firings", 0),
            "vt_records": counts.get("vt.records", 0),
        },
        "instrumentation_time": instrumentation,
        "application_time": application,
        "instrumented_share": (
            instrumentation / cpu_seconds if cpu_seconds > 0 else 0.0
        ),
    }


def render_trace_summary(doc: Dict[str, Any],
                         elapsed: Optional[float] = None,
                         top: int = 12) -> str:
    """Human-readable critical-path + perturbation summary of a trace."""
    _check(doc)
    util = track_utilization(doc)
    cp = critical_path(doc)
    pert = perturbation_report(doc, elapsed=elapsed)
    lines = [
        f"trace: {len(doc['tracks'])} tracks, "
        f"{sum(r['events'] for r in util)} events recorded, "
        f"{doc.get('dropped_events', 0)} dropped "
        f"(detail={doc.get('detail')}, capacity={doc.get('capacity')})",
        "",
        f"{'track':<16s} {'events':>7s} {'dropped':>8s} {'busy(s)':>10s} {'util':>7s}",
        "-" * 52,
    ]
    for r in util:
        lines.append(
            f"{r['name']:<16.16s} {r['events']:>7d} {r['dropped']:>8d} "
            f"{r['busy']:>10.4f} {r['utilization']:>6.1%}"
        )
    lines += [
        "",
        f"critical path: {len(cp['path'])} events across "
        f"{cp['tracks_visited']} track(s), {cp['elapsed']:.4f}s elapsed, "
        f"{cp['span_time']:.4f}s in recorded spans",
    ]
    for cat, t in cp["by_category"].items():
        lines.append(f"  {cat:<24s} {t:>10.4f}s on path")
    tail = cp["path"][-top:]
    if tail:
        lines.append(f"  last {len(tail)} events on the path:")
        for ev in tail:
            lines.append(
                f"    {ev['ts']:>10.4f}s {ev['track']:<12.12s} "
                f"{ev['ph']:<4s} {ev['name']} [{ev['cat']}]"
            )
    lines += [
        "",
        f"perturbation attribution over {pert['elapsed']:.4f}s x "
        f"{pert['ranks']} rank(s) = {pert['cpu_seconds']:.4f} CPU-s:",
    ]
    denom = pert["cpu_seconds"]
    for name, t in pert["components"].items():
        share = t / denom if denom > 0 else 0.0
        lines.append(f"  {name:<16s} {t:>10.4f}s  {share:>6.2%}")
    lines += [
        f"  {'application':<16s} {pert['application_time']:>10.4f}s  "
        f"{1 - pert['instrumented_share']:>6.2%}",
        f"  instrumentation share: {pert['instrumented_share']:.2%} "
        f"({pert['event_counts']['probe_events']:,} probe events, "
        f"{pert['event_counts']['trampoline_firings']:,} trampoline "
        f"firings, {pert['event_counts']['vt_records']:,} VT records)",
    ]
    return "\n".join(lines) + "\n"
