"""Figure 9 — time used by dynprof to create and instrument each target.

For every ASCI kernel and processor count, dynprof spawns the target
(suspended), attaches, patches the bootstrap, starts the run, waits for
the per-rank init callbacks, installs the dynamic probes while the ranks
are captive in the spin, and releases them.  The recorded time is the
tool's wall clock from session start to spin release.

The MPI curves grow with the process count — dynprof must download and
navigate one program structure, and patch one image, per process — while
Umt98's curve is flat: all OpenMP threads share a single image
(Section 5.1).

Each data point is one ``instrument`` sweep point;
:func:`repro.experiments.measure.measure_create_and_instrument`
simulates it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..apps import ALL_APPS, AppSpec, get_app
from ..cluster import MachineSpec, POWER3_SP
from ..faults import FaultPlan
from ..runner import SweepPoint, SweepRunner
from ..runner.runner import run_grid
from .results import FigureResult

__all__ = ["run_fig9"]


def _fig9_cell_runs(app: AppSpec, n: int) -> bool:
    """Whether Figure 9 has a data point for (app, n CPUs)."""
    if not (n in app.cpu_counts
            or min(app.cpu_counts) <= n <= max(app.cpu_counts)):
        return False
    return not (app.kind == "omp" and n > max(app.cpu_counts))


def run_fig9(
    cpu_counts: Optional[Sequence[int]] = None,
    machine: MachineSpec = POWER3_SP,
    seed: int = 0,
    apps: Optional[Sequence[str]] = None,
    runner: Optional[SweepRunner] = None,
    jobs: int = 1,
    faults: Optional[FaultPlan] = None,
) -> FigureResult:
    """Reproduce Figure 9: one series per application."""
    app_names = list(apps) if apps is not None else list(ALL_APPS)
    all_cpus = cpu_counts
    x: List[int] = sorted(
        set(all_cpus)
        if all_cpus is not None
        else {c for name in app_names for c in get_app(name).cpu_counts}
    )
    fig = FigureResult(
        "fig9",
        "Time to create and instrument",
        "CPUs",
        "Time (s)",
        x,
    )
    points = [
        SweepPoint.instrument(get_app(name).name, n, machine=machine,
                              seed=seed, faults=faults)
        for name in app_names
        for n in x
        if _fig9_cell_runs(get_app(name), n)
    ]
    payloads = iter(run_grid(points, runner, jobs))
    for name in app_names:
        app = get_app(name)
        values: List[Optional[float]] = [
            next(payloads)["time"] if _fig9_cell_runs(app, n) else None
            for n in x
        ]
        fig.add_series(app.title, values)
    fig.notes.append(
        "Umt98's curve is flat: a single shared OpenMP image to instrument"
    )
    return fig
