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

from ..cluster import IA32_LINUX, MachineSpec, POWER3_SP
from ..runner import SweepPoint, SweepRunner
from ..runner.runner import run_grid
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


def _confsync_series(
    proc_counts: Sequence[int],
    machine: MachineSpec,
    seed: int,
    runner: Optional[SweepRunner],
    jobs: int,
    *variants: dict,
) -> List[List[float]]:
    """Run one confsync grid (one sweep point per (variant, procs) cell)
    through a SweepRunner; returns one value list per variant."""
    points = [
        SweepPoint.confsync(p, machine=machine, seed=seed, reps=REPS, **variant)
        for variant in variants
        for p in proc_counts
    ]
    payloads = iter(run_grid(points, runner, jobs))
    return [
        [next(payloads)["time"] for _p in proc_counts]
        for _variant in variants
    ]


def run_fig8a(
    proc_counts: Sequence[int] = IBM_PROC_COUNTS,
    seed: int = 0,
    runner: Optional[SweepRunner] = None,
    jobs: int = 1,
) -> FigureResult:
    """Time for VT_confsync on the IBM system, no-change vs. changes."""
    fig = FigureResult(
        "fig8a",
        "Time for VT_confsync on IBM",
        "Number of Processors",
        "Time (s)",
        list(proc_counts),
    )
    fig.notes.append(f"each point averages {REPS} calls (as in the paper)")
    no_change, changes = _confsync_series(
        proc_counts, POWER3_SP, seed, runner, jobs,
        {"change": False}, {"change": True},
    )
    fig.add_series("No Change", no_change)
    fig.add_series("Changes", changes)
    return fig


def run_fig8b(
    proc_counts: Sequence[int] = IBM_PROC_COUNTS,
    seed: int = 0,
    runner: Optional[SweepRunner] = None,
    jobs: int = 1,
) -> FigureResult:
    """Time to write statistics within VT_confsync on the IBM system."""
    fig = FigureResult(
        "fig8b",
        "Time to write statistics on IBM",
        "Number of Processors",
        "Time (s)",
        list(proc_counts),
    )
    fig.notes.append(f"each point averages {REPS} calls (as in the paper)")
    (stats,) = _confsync_series(
        proc_counts, POWER3_SP, seed, runner, jobs, {"stats": True},
    )
    fig.add_series("Statistics", stats)
    return fig


def run_fig8c(
    proc_counts: Sequence[int] = IA32_PROC_COUNTS,
    seed: int = 0,
    runner: Optional[SweepRunner] = None,
    jobs: int = 1,
) -> FigureResult:
    """Time for VT_confsync on the IA32 Linux cluster (no change)."""
    fig = FigureResult(
        "fig8c",
        "Time for VT_confsync on IA32",
        "Number of Processors",
        "Time (s)",
        list(proc_counts),
    )
    fig.notes.append(f"each point averages {REPS} calls (as in the paper)")
    (no_change,) = _confsync_series(
        proc_counts, IA32_LINUX, seed, runner, jobs, {"change": False},
    )
    fig.add_series("No Change", no_change)
    return fig
