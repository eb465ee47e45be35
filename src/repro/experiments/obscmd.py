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
from typing import Any, Dict, List, Optional

from ..analysis.report import render_obs_report
from ..obs import prom
from ..obs.timeseries import decode_series, overhead_series, timeseries_to_csv

__all__ = ["obs_main", "load_obs_document", "render_obs_document",
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
    return doc


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments obs",
        description="Inspect obs metric documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="render an obs document (text/CSV/Prometheus/JSON)"
    )
    report.add_argument("file", help="obs document path, or - for stdin")
    fmt = report.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true",
                     help="emit the sampled series as long-format CSV")
    fmt.add_argument("--prom", action="store_true",
                     help="emit the snapshot in Prometheus text exposition")
    fmt.add_argument("--json", action="store_true",
                     help="re-emit the document with series decoded to arrays")
    return parser


def obs_main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    doc = load_obs_document(args.file)
    if args.csv:
        sys.stdout.write(timeseries_to_csv(doc.get("timeseries", {})))
    elif args.prom:
        sys.stdout.write(prom.render_snapshot(doc.get("obs", {})))
    elif args.json:
        json.dump(decode_document(doc), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(render_obs_document(doc))
    return 0
