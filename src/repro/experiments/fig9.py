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
from .artifacts import Plan, run_plan, upto
from .results import FigureResult

__all__ = ["run_fig9"]


def _fig9_cell_runs(app: AppSpec, n: int) -> bool:
    """Whether Figure 9 has a data point for (app, n CPUs)."""
    return min(app.cpu_counts) <= n <= max(app.cpu_counts)


def run_fig9(
    cpu_counts: Optional[Sequence[int]] = None,
    machine: MachineSpec = POWER3_SP,
    seed: int = 0,
    apps: Optional[Sequence[str]] = None,
    runner: Optional[SweepRunner] = None,
    faults: Optional[FaultPlan] = None,
) -> FigureResult:
    """Reproduce Figure 9: one series per application."""
    app_names = list(apps) if apps is not None else list(ALL_APPS)
    if cpu_counts is None:
        cpu_counts = {c for name in app_names for c in get_app(name).cpu_counts}
    return run_plan(fig9_plan(app_names, sorted(set(cpu_counts)), machine,
                              seed, faults), runner)


def fig9_plan(app_names: Sequence[str], x: Sequence[int], machine: MachineSpec,
              seed: int, faults: Optional[FaultPlan]) -> Plan:
    """One ``instrument`` point per (app, CPU count) cell that runs, and
    the reducer that plots their payloads."""
    apps = [get_app(name) for name in app_names]
    points = [
        SweepPoint.instrument(app.name, n, machine=machine, seed=seed,
                              faults=faults)
        for app in apps
        for n in x
        if _fig9_cell_runs(app, n)
    ]

    def figure(payloads: List[dict]) -> FigureResult:
        fig = FigureResult("fig9", "Time to create and instrument", "CPUs",
                           "Time (s)", list(x))
        payload = iter(payloads)
        for app in apps:
            fig.add_series(app.title, [
                next(payload)["time"] if _fig9_cell_runs(app, n) else None
                for n in x
            ])
        fig.notes.append(
            "Umt98's curve is flat: a single shared OpenMP image to instrument"
        )
        return fig

    return points, figure


def artifact_plan(n_cpus: Optional[int], seed: int,
                  faults: Optional[FaultPlan]) -> Plan:
    """The ``fig9`` artifact: every app's CPU counts up to ``n_cpus``."""
    x = sorted({c for app in ALL_APPS.values() for c in app.cpu_counts})
    return fig9_plan(list(ALL_APPS), upto(x, n_cpus), POWER3_SP, seed, faults)
