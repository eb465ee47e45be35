"""Delta-debugging a failing fault plan down to a minimal subset.

Given a point and a fault plan whose run is "interesting" — it fails,
its payload differs from the fault-free payload, or it diverges from a
recorded clean run — :func:`bisect_plan` applies the classic ddmin
algorithm (Zeller & Hildebrandt) over the plan's ``FaultSpec`` list:
repeatedly re-execute the (deterministic) point under subsets and
complements at increasing granularity until no smaller subset stays
interesting.  Determinism is what makes this sound: the same
(point, sub-plan) pair always reproduces the same outcome, so every
test is a reliable oracle and the returned subset is 1-minimal
(removing any single remaining spec makes the failure disappear).

Three built-in predicates (``mode``):

``effect``
    Interesting iff the payload differs from the fault-free baseline
    payload (which spec actually changed the outcome?).  The
    comparison skips the injection report and any key the baseline
    does not have: carrying a plan always attaches those, whether or
    not a single fault fired.
``fail``
    Interesting iff the envelope status is not ``"ok"``.
``diverge``
    Interesting iff replaying the run against a *clean* recorded order
    log raises :class:`~repro.replay.errors.DivergenceError` (which
    spec perturbed the partial order?).  Requires ``against`` — an
    :class:`~repro.replay.orderlog.OrderLog` recorded from the
    fault-free run of the same point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..faults.plan import FaultPlan, FaultSpec
from ..runner.collect import ReplayCollector
from ..runner.point import SweepPoint, _faults_params
from ..runner.worker import execute_point
from .orderlog import OrderLog

__all__ = ["BisectResult", "bisect_plan", "ddmin", "point_with_faults"]


def point_with_faults(point: SweepPoint, plan: Optional[FaultPlan]) -> SweepPoint:
    """The same point under a different fault plan (empty/None = clean)."""
    params = tuple((k, v) for k, v in point.params if k != "faults")
    params += _faults_params(plan)
    return SweepPoint(point.kind, point.procs, app=point.app,
                      policy=point.policy, machine=point.machine,
                      seed=point.seed, scale=point.scale, params=params)


@dataclass
class BisectResult:
    """Outcome of one plan bisection."""

    #: The 1-minimal interesting sub-plan.
    minimal: FaultPlan
    #: Spec count of the original plan.
    original_size: int
    #: Point executions performed (cache-free deterministic re-runs).
    tests: int
    #: One row per test: {"specs": [indices...], "interesting": bool}.
    history: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "minimal": self.minimal.to_dict(),
            "minimal_size": len(self.minimal),
            "original_size": self.original_size,
            "tests": self.tests,
            "history": self.history,
        }


def ddmin(
    items: Sequence[Any],
    interesting: Callable[[List[Any]], bool],
) -> List[Any]:
    """Classic ddmin: a 1-minimal sublist of ``items`` that stays
    interesting.  ``interesting(items)`` must be True; the empty list
    is assumed uninteresting (the caller's baseline)."""
    current = list(items)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        subsets = [current[i:i + chunk] for i in range(0, len(current), chunk)]
        reduced = False
        for i, subset in enumerate(subsets):
            if len(subsets) > 1 and interesting(subset):
                current = subset
                granularity = 2
                reduced = True
                break
            complement = [x for j, s in enumerate(subsets) if j != i for x in s]
            if complement and len(complement) < len(current) \
                    and interesting(complement):
                current = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(granularity * 2, len(current))
    return current


def bisect_plan(
    point: SweepPoint,
    plan: FaultPlan,
    mode: str = "effect",
    against: Optional[OrderLog] = None,
    timeout: Optional[float] = None,
) -> BisectResult:
    """Delta-debug ``plan`` to a 1-minimal interesting sub-plan.

    ``point`` may or may not already carry the plan; it is re-armed
    with each candidate subset before execution.  Raises ValueError
    when the full plan is not interesting (nothing to minimize) or, in
    ``effect``/``diverge`` mode, when the *empty* plan already is (the
    baseline itself fails the oracle).
    """
    if mode not in ("effect", "fail", "diverge"):
        raise ValueError(f"unknown bisect mode {mode!r}")
    if mode == "diverge" and against is None:
        raise ValueError("diverge mode needs a recorded clean order log")
    against_log = against.to_b64() if against is not None else None

    tests = [0]
    history: List[Dict[str, Any]] = []
    specs = list(plan.specs)
    indices = {id(s): i for i, s in enumerate(specs)}

    def run(subset: List[FaultSpec]) -> Dict[str, Any]:
        sub_plan = FaultPlan(specs=tuple(subset))
        sub_point = point_with_faults(point, sub_plan)
        tests[0] += 1
        collectors = []
        if mode == "diverge":
            collectors.append(ReplayCollector({sub_point.label: against_log}))
        return execute_point(sub_point, timeout=timeout,
                             collectors=collectors)

    baseline_blob: Optional[str] = None
    baseline_keys: Optional[frozenset] = None

    def effect_view(payload: Any) -> str:
        # Compare only what the fault-free baseline also reports.  A
        # non-empty plan always attaches an injection report (the
        # "faults" payload key) and may route instrument points through
        # the detail measurement (extra breakdown keys) — structural
        # side effects of *carrying* a plan, not evidence the plan
        # changed the outcome.
        if isinstance(payload, dict) and baseline_keys is not None:
            payload = {k: v for k, v in payload.items()
                       if k != "faults" and k in baseline_keys}
        return json.dumps(payload, sort_keys=True)

    if mode == "effect":
        clean = run([])
        if clean["status"] != "ok":
            raise ValueError(
                "effect-mode baseline (fault-free run) did not succeed: "
                f"{clean.get('error', clean['status'])}"
            )
        if isinstance(clean["payload"], dict):
            baseline_keys = frozenset(clean["payload"])
        baseline_blob = effect_view(clean["payload"])

    def interesting(subset: List[FaultSpec]) -> bool:
        envelope = run(subset)
        if mode == "fail":
            hit = envelope["status"] != "ok"
        elif mode == "diverge":
            hit = envelope["status"] == "diverged"
        else:
            hit = (envelope["status"] != "ok"
                   or effect_view(envelope["payload"]) != baseline_blob)
        history.append({
            "specs": sorted(indices[id(s)] for s in subset),
            "interesting": hit,
        })
        return hit

    if not interesting(specs):
        raise ValueError(
            f"the full {len(specs)}-spec plan is not interesting under "
            f"mode={mode!r}; nothing to minimize"
        )
    if mode in ("effect", "diverge") and specs and interesting([]):
        raise ValueError(
            f"the empty plan is already interesting under mode={mode!r}; "
            "the baseline itself fails the oracle"
        )

    minimal = ddmin(specs, interesting)
    return BisectResult(
        minimal=FaultPlan(specs=tuple(minimal), note=plan.note),
        original_size=len(specs),
        tests=tests[0],
        history=history,
    )
