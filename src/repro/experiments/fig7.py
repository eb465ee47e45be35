"""Figure 7 — execution time of the instrumented application versions.

One panel per ASCI kernel: Smg98 (a), Sppm (b), Sweep3d (c), Umt98 (d);
series = the Table 3 policies; x = processor counts.  The reported time
is the main-computation elapsed time (instrumentation creation/insertion
excluded, probe overhead included), exactly as in Section 4.2.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..apps import AppSpec, get_app
from ..cluster import MachineSpec, POWER3_SP
from ..dynprof import POLICIES, PolicyResult
from ..faults import FaultPlan
from ..runner import SweepPoint, SweepRunner
from ..runner.runner import run_grid
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
    collect: Optional[Dict[str, List[PolicyResult]]] = None,
    runner: Optional[SweepRunner] = None,
    jobs: int = 1,
    faults: Optional[FaultPlan] = None,
) -> FigureResult:
    """Reproduce one Figure 7 panel.

    ``scale`` shrinks the workload (fewer cycles/steps); overhead ratios
    are scale-invariant because probe cost and compute are both
    per-call.  ``collect`` (optional) receives the raw PolicyResults.

    The (policy x CPU-count) grid executes through a
    :class:`~repro.runner.SweepRunner` — pass ``runner`` to share a
    worker pool/cache across figures, or just ``jobs`` to parallelize
    this panel; the simulation is deterministic, so the result is
    identical whichever path ran it.
    """
    app = get_app(app) if isinstance(app, str) else app
    cpus = list(cpu_counts) if cpu_counts is not None else list(app.cpu_counts)
    panel = {v: k for k, v in FIG7_PANELS.items()}.get(app.name, "fig7")
    fig = FigureResult(
        figure_id=panel,
        title=f"The execution time of instrumented versions of {app.title}",
        xlabel="CPUs",
        ylabel="Time (s)",
        x=cpus,
    )
    fig.notes.append(f"workload scale={scale} (times scale ~linearly with it)")
    fig.notes.append(f"machine={machine.name}, seed={seed}")
    if not app.has_subset_policy:
        fig.notes.append(
            "no Subset version: Full and None are already comparable "
            "(paper, Section 4.3)"
        )

    policies = [p for p in POLICIES
                if p != "Subset" or app.has_subset_policy]
    points = [
        SweepPoint.policy_cell(app.name, policy, n,
                               scale=scale, machine=machine, seed=seed,
                               faults=faults)
        for policy in policies
        for n in cpus
    ]
    payloads = iter(run_grid(points, runner, jobs))
    for policy in policies:
        values: List[Optional[float]] = []
        for _n in cpus:
            result = PolicyResult(**next(payloads))
            values.append(result.time)
            if collect is not None:
                collect.setdefault(policy, []).append(result)
        fig.add_series(policy, values)
    return fig


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
