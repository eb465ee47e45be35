"""The overhead-timeline experiment — instrumentation cost over time.

The paper argues that instrumentation overhead must be observed *over*
a run (probe cost tracks application phase structure), but its figures
only report end-of-run totals.  This experiment produces the figure
family the paper gestures at: cumulative instrumentation overhead
versus simulated time for the four ASCI benchmark apps under the Full
(static) and Dynamic (dynprof) policies, built from the sampled
time-series telemetry of :mod:`repro.obs.timeseries`.

Each (app, policy) cell executes in-process through
:func:`~repro.runner.worker.execute_point` with the metrics sampler
on, deliberately bypassing the result cache: a cached point carries no
sampled series because no simulation ran (the same reasoning that
keeps ``tracevol-compress`` in-process).  The overhead curve merges
every per-probe delta series with the ``vt.flush`` and
``dynprof.patch`` span series into one cumulative sum; the acceptance
property — pinned by tests — is that the curve's final value matches
the end-of-run snapshot totals to float-addition tolerance, i.e. the
windowed samples *telescope* to the truth rather than approximating
it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..apps import get_app
from ..cluster import MachineSpec, POWER3_SP
from ..obs.timeseries import DEFAULT_INTERVAL, overhead_series
from ..runner import SweepPoint

__all__ = ["OverheadTimeline", "run_overhead_timeline", "OVERHEAD_APPS",
           "OVERHEAD_POLICIES"]

#: The four ASCI applications of the paper's evaluation.
OVERHEAD_APPS = ("smg98", "sppm", "sweep3d", "umt98")

#: Full = every function statically probed (the worst case the paper
#: measures); Dynamic = dynprof's runtime-inserted subset.
OVERHEAD_POLICIES = ("Full", "Dynamic")

_SPARK_CHARS = " .:-=+*#%@"


def _sparkline(values: Sequence[float], width: int = 40) -> str:
    """A pure-ASCII sparkline of a (non-negative) series."""
    if not values:
        return ""
    # Downsample by taking the max of each bucket so short spikes of
    # overhead stay visible.
    n = len(values)
    buckets: List[float] = []
    step = max(1, (n + width - 1) // width)
    for i in range(0, n, step):
        buckets.append(max(values[i:i + step]))
    top = max(buckets)
    if top <= 0:
        return _SPARK_CHARS[0] * len(buckets)
    scale = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[min(scale, int(round(v / top * scale)))] for v in buckets
    )


class OverheadTimeline:
    """The result of one overhead-timeline run: a curve per cell.

    Quacks like a :class:`~repro.experiments.results.FigureResult`
    (``render`` / ``to_csv`` / ``to_dict``) so the CLI renders and
    exports it with the same machinery, but carries float time axes a
    FigureResult's integer x-axis cannot.
    """

    def __init__(self, interval: float, scale: float, seed: int) -> None:
        self.title = "Instrumentation overhead vs. simulated time"
        self.interval = interval
        self.scale = scale
        self.seed = seed
        #: One dict per (app, policy) cell — see :meth:`add_cell`.
        self.cells: List[Dict[str, Any]] = []

    def add_cell(
        self,
        app: str,
        policy: str,
        n_cpus: int,
        times: List[float],
        cumulative: List[float],
        snapshot_overhead: float,
        program_time: float,
        samples: int,
        dropped: int,
    ) -> None:
        self.cells.append({
            "app": app,
            "policy": policy,
            "n_cpus": n_cpus,
            "times": times,
            "cumulative": cumulative,
            #: End-of-run truth from the merged registry snapshot
            #: (probe totals + flush/patch span totals).
            "snapshot_overhead": snapshot_overhead,
            "final_overhead": cumulative[-1] if cumulative else 0.0,
            "program_time": program_time,
            "samples": samples,
            "dropped": dropped,
        })

    # -- the acceptance property ----------------------------------------------

    def consistency(self) -> float:
        """Worst relative gap between a curve's final value and the
        end-of-run snapshot, over all cells (0.0 for a perfect run).

        Ring evictions break the telescoping property (early windows
        are gone from the decoded series), so cells with drops are
        excluded — the ``dropped`` count makes that loss explicit.
        """
        worst = 0.0
        for cell in self.cells:
            if cell["dropped"]:
                continue
            truth = cell["snapshot_overhead"]
            got = cell["final_overhead"]
            denom = max(abs(truth), 1e-30)
            worst = max(worst, abs(got - truth) / denom)
        return worst

    def monotonic(self) -> bool:
        """True when every cumulative curve is non-decreasing (overhead
        never un-happens; a violation means a negative sampled delta)."""
        for cell in self.cells:
            cum = cell["cumulative"]
            if any(b < a for a, b in zip(cum, cum[1:])):
                return False
        return True

    # -- the figure-like contract ---------------------------------------------

    def render(self) -> str:
        lines = [self.title,
                 f"(sampled every {self.interval:g} simulated s, "
                 f"scale={self.scale:g}, seed={self.seed})", ""]
        lines.append(f"{'app':<9s} {'policy':<8s} {'cpus':>4s} "
                     f"{'overhead(s)':>12s} {'of program':>10s} "
                     f"{'samples':>7s}  timeline")
        lines.append("-" * 92)
        for cell in self.cells:
            frac = (cell["final_overhead"] / cell["program_time"]
                    if cell["program_time"] else 0.0)
            # Windowed (per-sample) overhead, so the sparkline shows
            # *when* the cost was paid, not just that it accumulated.
            cum = cell["cumulative"]
            windows = [b - a for a, b in zip([0.0] + cum[:-1], cum)]
            spark = _sparkline(windows)
            note = (f" (+{cell['dropped']} dropped)"
                    if cell["dropped"] else "")
            lines.append(
                f"{cell['app']:<9s} {cell['policy']:<8s} "
                f"{cell['n_cpus']:>4d} {cell['final_overhead']:>12.6f} "
                f"{frac:>9.2%} {cell['samples']:>7d}  |{spark}|{note}"
            )
        lines.append("")
        lines.append("timeline: windowed instrumentation seconds per sample "
                     "interval (probe events + trace flushes + patches), "
                     "scaled to each row's own peak")
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = ["app,policy,n_cpus,t,cumulative_overhead"]
        for cell in self.cells:
            for t, v in zip(cell["times"], cell["cumulative"]):
                rows.append(f"{cell['app']},{cell['policy']},"
                            f"{cell['n_cpus']},{t!r},{v!r}")
        return "\n".join(rows) + "\n"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "title": self.title,
            "interval": self.interval,
            "scale": self.scale,
            "seed": self.seed,
            "cells": [dict(cell) for cell in self.cells],
        }

    def __repr__(self) -> str:
        return (f"<OverheadTimeline {len(self.cells)} cells "
                f"@{self.interval:g}s>")


def _snapshot_overhead(attachments: Dict[str, Any]) -> float:
    """End-of-run instrumentation seconds from the envelope's obs
    snapshot + probe profile — the truth the curve must telescope to."""
    ts = attachments.get("timeseries", {})
    total = sum(row["overhead"] for row in ts.get("probes", {}).values())
    spans = attachments.get("obs", {}).get("spans", {})
    for name in ("vt.flush", "dynprof.patch"):
        agg = spans.get(name)
        if agg:
            total += agg["total"]
    return total


def run_overhead_timeline(
    apps: Sequence[str] = OVERHEAD_APPS,
    policies: Sequence[str] = OVERHEAD_POLICIES,
    n_cpus: int = 8,
    scale: float = 0.1,
    seed: int = 0,
    machine: MachineSpec = POWER3_SP,
    interval: Optional[float] = None,
) -> OverheadTimeline:
    """Run every (app, policy) cell with the sampler on; returns the
    timeline figure.  ``interval`` defaults to
    :data:`~repro.obs.timeseries.DEFAULT_INTERVAL` simulated seconds.
    """
    from ..runner.collect import MetricsCollector, SampleCollector
    from ..runner.worker import execute_point

    if interval is None:
        interval = DEFAULT_INTERVAL
    collectors = [MetricsCollector(), SampleCollector(interval)]
    fig = OverheadTimeline(interval=interval, scale=scale, seed=seed)
    for app_name in apps:
        app = get_app(app_name)
        cpus = app.clamp_cpus(n_cpus)
        for policy in policies:
            point = SweepPoint.policy_cell(
                app.name, policy, cpus,
                scale=scale, machine=machine, seed=seed,
            )
            envelope = execute_point(point, collectors=collectors)
            if envelope["status"] != "ok":
                raise RuntimeError(
                    f"overhead-timeline: {point.label}: "
                    f"{envelope.get('error', envelope['status'])}"
                )
            attachments = envelope["attachments"]
            ts = attachments["timeseries"]
            times, cumulative = overhead_series(ts)
            dropped = sum(
                s.get("dropped", 0)
                for name, s in ts.get("series", {}).items()
                if name.startswith("probe:")
                or name in ("span:vt.flush", "span:dynprof.patch")
            )
            fig.add_cell(
                app=app.name, policy=policy, n_cpus=cpus,
                times=times, cumulative=cumulative,
                snapshot_overhead=_snapshot_overhead(attachments),
                program_time=float(envelope["payload"].get("time") or 0.0),
                samples=int(ts.get("samples", 0)),
                dropped=dropped,
            )
    return fig


