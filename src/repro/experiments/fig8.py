"""Figure 8 — the cost of VT_confsync (dynamic control, Section 5).

Three experiments, each data point the average over 16 calls:

(a) VT_confsync on the IBM system, with and without configuration
    changes — the basic synchronisation cost;
(b) VT_confsync with runtime statistics generation on the IBM system —
    an order of magnitude larger, still negligible next to user
    interaction time;
(c) VT_confsync (no change) on the 16-node IA32 Linux cluster — same
    qualitative behaviour on a different architecture.

Each data point is one ``confsync`` sweep point;
:func:`repro.experiments.measure.measure_confsync` simulates it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cluster import IA32_LINUX, POWER3_SP
from ..runner import SweepPoint, SweepRunner
from .artifacts import Plan, run_plan, upto
from .results import FigureResult

__all__ = [
    "run_fig8a",
    "run_fig8b",
    "run_fig8c",
    "IBM_PROC_COUNTS",
    "IA32_PROC_COUNTS",
]

#: Processor counts of Figures 8(a)/8(b).
IBM_PROC_COUNTS = (2, 4, 8, 16, 32, 64, 128, 256, 512)
#: Processor counts of Figure 8(c).
IA32_PROC_COUNTS = tuple(range(2, 17))

#: Calls averaged per data point, as in the paper.
REPS = 16

#: panel -> (title, machine, processor counts, {series: confsync variant}).
PANELS = {
    "fig8a": ("Time for VT_confsync on IBM", POWER3_SP, IBM_PROC_COUNTS,
              {"No Change": {"change": False}, "Changes": {"change": True}}),
    "fig8b": ("Time to write statistics on IBM", POWER3_SP, IBM_PROC_COUNTS,
              {"Statistics": {"stats": True}}),
    "fig8c": ("Time for VT_confsync on IA32", IA32_LINUX, IA32_PROC_COUNTS,
              {"No Change": {"change": False}}),
}


def fig8_plan(panel: str, proc_counts: Sequence[int], seed: int) -> Plan:
    """One sweep point per (series, processor count) cell of ``panel``,
    and the reducer that plots their payloads."""
    title, machine, _counts, series = PANELS[panel]
    points = [
        SweepPoint.confsync(p, machine=machine, seed=seed, reps=REPS, **variant)
        for variant in series.values()
        for p in proc_counts
    ]

    def figure(payloads: List[dict]) -> FigureResult:
        fig = FigureResult(panel, title, "Number of Processors", "Time (s)",
                           list(proc_counts))
        fig.notes.append(f"each point averages {REPS} calls (as in the paper)")
        payload = iter(payloads)
        for label in series:
            fig.add_series(label, [next(payload)["time"] for _p in proc_counts])
        return fig

    return points, figure


def run_fig8a(
    proc_counts: Sequence[int] = IBM_PROC_COUNTS,
    seed: int = 0,
    runner: Optional[SweepRunner] = None,
) -> FigureResult:
    """Time for VT_confsync on the IBM system, no-change vs. changes."""
    return run_plan(fig8_plan("fig8a", proc_counts, seed), runner)


def run_fig8b(
    proc_counts: Sequence[int] = IBM_PROC_COUNTS,
    seed: int = 0,
    runner: Optional[SweepRunner] = None,
) -> FigureResult:
    """Time to write statistics within VT_confsync on the IBM system."""
    return run_plan(fig8_plan("fig8b", proc_counts, seed), runner)


def run_fig8c(
    proc_counts: Sequence[int] = IA32_PROC_COUNTS,
    seed: int = 0,
    runner: Optional[SweepRunner] = None,
) -> FigureResult:
    """Time for VT_confsync on the IA32 Linux cluster (no change)."""
    return run_plan(fig8_plan("fig8c", proc_counts, seed), runner)


def panel_plan(name: str, n_cpus: Optional[int], seed: int) -> Plan:
    """Artifact ``name``'s plan: its processor counts up to ``n_cpus``."""
    return fig8_plan(name, upto(PANELS[name][2], n_cpus), seed)
