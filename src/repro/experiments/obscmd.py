"""The ``repro-experiments obs`` subcommand — inspect obs documents.

An *obs document* is the JSON written by ``--obs FILE`` (sweep, figure
and chaos runs alike): a registry snapshot under ``"obs"``, optionally
a telemetry summary under ``"telemetry"`` and per-label sampled series
under ``"timeseries"``.  This module turns those files back into
something a human — or a Prometheus scraper — can consume without
re-running anything:

* ``obs report FILE`` — text report (registry rows, telemetry summary,
  per-label series/overhead digests); ``--prom`` renders the snapshot
  in Prometheus text exposition instead, ``--csv`` dumps the sampled
  series in long CSV, ``--json`` re-emits the document with every
  series decoded to plain arrays.  ``FILE`` may be ``-`` for stdin.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.report import render_obs_report
from ..compact.container import DecodeError
from ..obs import prom
from ..obs.timeseries import decode_series, overhead_series, timeseries_to_csv

__all__ = ["report", "load_obs_document", "render_obs_document",
           "decode_document"]


def _fail(message: str) -> "SystemExit":
    print(f"repro-experiments: {message}", file=sys.stderr)
    return SystemExit(1)


def load_obs_document(path: str) -> Dict[str, Any]:
    """Read an obs document from ``path`` (``-`` = stdin)."""
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except OSError as exc:
        raise _fail(f"cannot read obs document {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _fail(f"obs document {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or "obs" not in doc:
        raise _fail(f"obs document {path} has no 'obs' snapshot "
                    f"(was it written by --obs?)")
    problem = _shape_problem(doc)
    if problem is not None:
        raise _fail(f"obs document {path} is malformed: {problem}")
    return doc


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _rows(value: Any, fields: Tuple[str, ...]) -> bool:
    """Whether ``value`` maps names to objects whose ``fields`` are numbers."""
    return isinstance(value, dict) and all(
        isinstance(row, dict) and all(_is_number(row.get(f)) for f in fields)
        for row in value.values())


def _shape_problem(doc: Dict[str, Any]) -> Optional[str]:
    """What keeps ``doc`` from being reported, or None.

    Checks every field the report modes read, and decodes every sampled
    series, so a damaged document fails here as one line."""
    snap = doc["obs"]
    if not isinstance(snap, dict):
        return "'obs' is not an object"
    for section in ("counters", "gauges"):
        values = snap.get(section, {})
        if not (isinstance(values, dict) and all(map(_is_number, values.values()))):
            return f"obs.{section} is not an object of numbers"
    if not _rows(snap.get("spans", {}), ("count", "total", "max")):
        return "obs.spans is not an object of {count, total, max} numbers"
    hists = snap.get("histograms", {})
    if not _rows(hists, ("count", "total")) or not all(
            isinstance(h.get(k), list) and all(map(_is_number, h[k]))
            for h in hists.values() for k in ("edges", "counts")):
        return "obs.histograms is not an object of histograms"
    if not isinstance(doc.get("telemetry", {}), dict):
        return "'telemetry' is not an object"
    timeseries = doc.get("timeseries", {})
    if not isinstance(timeseries, dict):
        return "'timeseries' is not an object"
    for label, ts in timeseries.items():
        where = f"timeseries[{label!r}]"
        if not (isinstance(ts, dict) and _is_number(ts.get("samples", 0))
                and _is_number(ts.get("interval", 0))):
            return f"{where} is not a series document"
        if not _rows(ts.get("probes", {}), ("count", "time", "overhead")):
            return f"{where}.probes is not an object of probe rows"
        series = ts.get("series", {})
        if not _rows(series, ("dropped", "total")):
            return f"{where}.series is not an object of series"
        for name, sdoc in series.items():
            if not isinstance(sdoc.get("n"), int):
                return f"series {name!r} of {label!r} has no sample count 'n'"
            try:
                decode_series(sdoc)
            except DecodeError as exc:
                return f"series {name!r} of {label!r} does not decode: {exc}"
    return None


def render_obs_document(doc: Dict[str, Any]) -> str:
    """The human-readable report for one obs document."""
    parts: List[str] = []
    version = doc.get("version")
    point = doc.get("point")
    header = "obs document"
    if version:
        header += f" (repro {version})"
    parts.append(header)
    if isinstance(point, dict) and point.get("label"):
        parts.append(f"point: {point['label']}")
    parts.append("")
    parts.append(render_obs_report(doc.get("obs", {})).rstrip("\n"))
    telemetry = doc.get("telemetry")
    if isinstance(telemetry, dict) and telemetry:
        parts.append("")
        parts.append("sweep telemetry")
        for key in sorted(telemetry):
            parts.append(f"  {key:<28s} {telemetry[key]}")
    timeseries = doc.get("timeseries")
    if isinstance(timeseries, dict) and timeseries:
        parts.append("")
        parts.append("sampled time series")
        for label in sorted(timeseries):
            ts = timeseries[label]
            series = ts.get("series", {})
            dropped = sum(int(s.get("dropped", 0)) for s in series.values())
            times, cum = overhead_series(ts)
            line = (f"  {label}: {len(series)} series, "
                    f"{ts.get('samples', 0)} samples @ "
                    f"{ts.get('interval', 0):g}s")
            if dropped:
                line += f", {dropped} dropped"
            if cum:
                line += (f"; instrumentation overhead "
                         f"{cum[-1]:.6f}s by t={times[-1]:.3f}s")
            parts.append(line)
            probes = ts.get("probes", {})
            if probes:
                top = sorted(probes.items(),
                             key=lambda kv: -kv[1].get("overhead", 0.0))[:5]
                for name, row in top:
                    parts.append(
                        f"    {name:<26.26s} {int(row.get('count', 0)):>8d} "
                        f"pairs  overhead {row.get('overhead', 0.0):.6f}s"
                    )
    return "\n".join(parts) + "\n"


def decode_document(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The document with every delta-encoded series expanded to plain
    ``{"t": [...], "v": [...]}`` arrays (for ``--json`` consumers that
    don't speak the varint codec)."""
    out = dict(doc)
    timeseries = doc.get("timeseries")
    if isinstance(timeseries, dict):
        decoded: Dict[str, Any] = {}
        for label, ts in timeseries.items():
            ts_out = dict(ts)
            series_out: Dict[str, Any] = {}
            for name, sdoc in ts.get("series", {}).items():
                times, values = decode_series(sdoc)
                series_out[name] = {
                    "kind": sdoc.get("kind"),
                    "dropped": sdoc.get("dropped", 0),
                    "total": sdoc.get("total", 0.0),
                    "t": times,
                    "v": values,
                }
            ts_out["series"] = series_out
            decoded[label] = ts_out
        out["timeseries"] = decoded
    return out


# -- CLI --------------------------------------------------------------------------


def report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``repro-experiments obs report``: one obs document as text,
    ``--csv``, ``--prom`` or ``--json``."""
    doc = load_obs_document(args.file)
    if args.csv:
        text = timeseries_to_csv(doc.get("timeseries", {}))
    elif args.prom:
        text = prom.render_snapshot(doc.get("obs", {}))
    elif args.json:
        text = json.dumps(decode_document(doc), indent=2) + "\n"
    else:
        text = render_obs_document(doc)
    sys.stdout.write(text)
    return 0
