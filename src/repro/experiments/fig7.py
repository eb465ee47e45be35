"""Figure 7 — execution time of the instrumented application versions.

One panel per ASCI kernel: Smg98 (a), Sppm (b), Sweep3d (c), Umt98 (d);
series = the Table 3 policies; x = processor counts.  The reported time
is the main-computation elapsed time (instrumentation creation/insertion
excluded, probe overhead included), exactly as in Section 4.2.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..apps import AppSpec, get_app
from ..cluster import MachineSpec, POWER3_SP
from ..faults import FaultPlan
from ..runner import SweepPoint, SweepRunner
from .artifacts import Plan, run_plan, upto
from .results import FigureResult

__all__ = ["run_fig7", "fig7_shape_report", "FIG7_PANELS"]

#: figure panel -> application.
FIG7_PANELS = {
    "fig7a": "smg98",
    "fig7b": "sppm",
    "fig7c": "sweep3d",
    "fig7d": "umt98",
}


def run_fig7(
    app: AppSpec | str,
    cpu_counts: Optional[Sequence[int]] = None,
    scale: float = 0.1,
    machine: MachineSpec = POWER3_SP,
    seed: int = 0,
    runner: Optional[SweepRunner] = None,
    faults: Optional[FaultPlan] = None,
) -> FigureResult:
    """Reproduce one Figure 7 panel.

    ``scale`` shrinks the workload (fewer cycles/steps); overhead ratios
    are scale-invariant because probe cost and compute are both
    per-call.

    The (policy x CPU-count) grid executes through ``runner`` (pass one
    to share a worker pool and cache across figures; without one it
    runs in-process); the simulation is deterministic, so the result
    is identical whichever path ran it.
    """
    app = get_app(app) if isinstance(app, str) else app
    cpus = list(cpu_counts) if cpu_counts is not None else list(app.cpu_counts)
    return run_plan(fig7_plan(app, cpus, scale, machine, seed, faults), runner)


def fig7_plan(app: AppSpec, cpus: Sequence[int], scale: float,
              machine: MachineSpec, seed: int,
              faults: Optional[FaultPlan]) -> Plan:
    """One panel's (policy x CPU-count) points, policy-major, and the
    reducer that plots their payloads."""
    points = [
        SweepPoint.policy_cell(app.name, policy, n, scale=scale,
                               machine=machine, seed=seed, faults=faults)
        for policy in app.policies
        for n in cpus
    ]

    def figure(payloads: List[dict]) -> FigureResult:
        panel = {v: k for k, v in FIG7_PANELS.items()}.get(app.name, "fig7")
        fig = FigureResult(
            panel, f"The execution time of instrumented versions of {app.title}",
            "CPUs", "Time (s)", list(cpus))
        fig.notes.append(f"workload scale={scale} (times scale ~linearly with it)")
        fig.notes.append(f"machine={machine.name}, seed={seed}")
        if not app.has_subset_policy:
            fig.notes.append(
                "no Subset version: Full and None are already comparable "
                "(paper, Section 4.3)"
            )
        payload = iter(payloads)
        for policy in app.policies:
            fig.add_series(policy, [next(payload)["time"] for _n in cpus])
        return fig

    return points, figure


def panel_plan(name: str, n_cpus: Optional[int], seed: int, scale: float,
               faults: Optional[FaultPlan]) -> Plan:
    """Artifact ``name``'s plan: its app's CPU counts up to ``n_cpus``;
    it prints the panel and its shape report."""
    app = get_app(FIG7_PANELS[name])
    points, figure = fig7_plan(app, upto(app.cpu_counts, n_cpus), scale,
                               POWER3_SP, seed, faults)

    def outputs(payloads: List[dict]) -> list:
        fig = figure(payloads)
        return [fig, "\n".join(fig7_shape_report(fig, app)) + "\n"]

    return points, outputs


def fig7_shape_report(fig: FigureResult, app: AppSpec | str) -> List[str]:
    """Check the paper's qualitative claims against a fig7 panel.

    Returns a list of "PASS/FAIL: claim" strings (used by tests and by
    EXPERIMENTS.md generation).
    """
    app = get_app(app) if isinstance(app, str) else app
    checks: List[str] = []
    x_max = fig.x[-1]

    def check(label: str, ok: bool) -> None:
        checks.append(f"{'PASS' if ok else 'FAIL'}: {label}")

    full = fig.get("Full").value_at(fig.x, x_max)
    none = fig.get("None").value_at(fig.x, x_max)
    dyn = fig.get("Dynamic").value_at(fig.x, x_max)
    off = fig.get("Full-Off").value_at(fig.x, x_max)

    if app.name == "smg98":
        check("Full ~7x slower than None at 64 CPUs", 4.5 <= full / none <= 10)
        check("Full-Off well above None", off / none >= 1.2)
        sub = fig.get("Subset").value_at(fig.x, x_max)
        check("Subset approximately equal to Full-Off", 0.8 <= sub / off <= 1.25)
        check("Dynamic very close to None", dyn / none <= 1.05)
        t0 = fig.get("None").values[0]
        check("weak scaling: time grows with CPUs", none > t0)
    elif app.name == "sppm":
        check("Full larger but not as extreme as Smg98", 1.15 <= full / none <= 3.0)
        sub = fig.get("Subset").value_at(fig.x, x_max)
        check("Full-Off and Subset similar", 0.8 <= sub / off <= 1.25)
        check("Dynamic performs almost as well as None", dyn / none <= 1.05)
    elif app.name == "sweep3d":
        check("Full and None comparable (negligible differences)",
              abs(full / none - 1.0) <= 0.10)
        check("Dynamic comparable to None", abs(dyn / none - 1.0) <= 0.10)
        t_first = fig.get("None").values[0]
        check("strong scaling: time decreases with CPUs", none < t_first / 3)
    elif app.name == "umt98":
        check("noticeable benefit of Dynamic over Full", full > dyn * 1.05)
        check("variations less significant than Smg98/Sppm", full / none <= 2.0)
        t_first = fig.get("None").values[0]
        check("strong scaling: time decreases with CPUs", none < t_first / 2)
    return checks
