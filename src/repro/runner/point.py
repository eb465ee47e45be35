"""Declarative sweep points — the unit of work of :class:`SweepRunner`.

A :class:`SweepPoint` names one cell of an experiment grid — which
simulation to run (``kind``), on which application/policy, at which
process count, on which machine, with which seed and workload scale —
without running anything.  Points are frozen, hashable and picklable,
so they travel to worker processes unchanged, and they canonicalize to
a stable JSON document that (together with the machine's cost-model
constants and the package version) forms the content-addressed cache
key (see :mod:`repro.runner.cache`).

Three kinds map onto the paper's experiments:

``policy``
    One Figure 7 / trace-volume cell: ``run_policy(app, policy, procs)``.
``confsync``
    One Figure 8 cell: ``measure_confsync(procs, change=, stats=, reps=)``.
``instrument``
    One Figure 9 cell: ``measure_create_and_instrument(app, procs)``.

A fourth kind, ``selftest``, exercises the worker machinery itself
(echo / sleep / raise / crash) and exists for the runner's own tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..cluster import POWER3_SP, MachineSpec

__all__ = ["SweepPoint", "POINT_KINDS", "check_scale"]

#: Recognised point kinds (``selftest`` is internal to the runner tests).
POINT_KINDS = ("policy", "confsync", "instrument", "selftest")

#: Parameter value types that canonicalize losslessly to JSON.
_PARAM_TYPES = (bool, int, float, str, type(None))


def check_scale(scale: float) -> float:
    """Return ``scale`` if it is finite and greater than 0.

    Anything else (0, a negative number, NaN, infinity) cannot size a
    workload: it raises :class:`ValueError` before any point runs.
    """
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"scale must be finite and > 0, got {scale!r}")
    return scale


def _faults_params(faults: Any) -> Tuple[Tuple[str, Any], ...]:
    """Canonicalize an optional fault plan into point params.

    Accepts a :class:`~repro.faults.FaultPlan` or its canonical JSON
    string.  Fault-free points carry no ``faults`` param at all, so
    their cache keys are unchanged from pre-faults versions of the
    point grid.
    """
    if faults is None:
        return ()
    if not isinstance(faults, str):
        if faults.is_empty:
            return ()
        faults = faults.canonical()
    return (("faults", faults),)


@dataclass(frozen=True)
class SweepPoint:
    """One cell of an experiment grid, described but not yet run."""

    kind: str
    procs: int
    app: Optional[str] = None
    policy: Optional[str] = None
    machine: MachineSpec = POWER3_SP
    seed: int = 0
    scale: float = 1.0
    #: Extra kind-specific parameters, kept sorted so two points built
    #: with the same parameters in any order compare (and hash) equal.
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in POINT_KINDS:
            raise ValueError(f"unknown point kind {self.kind!r}; known: {POINT_KINDS}")
        if self.procs < 1:
            raise ValueError("procs must be >= 1")
        check_scale(self.scale)
        for name, value in self.params:
            if not isinstance(value, _PARAM_TYPES):
                raise TypeError(
                    f"param {name!r} has non-canonicalizable type {type(value).__name__}"
                )
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def policy_cell(
        cls,
        app: str,
        policy: str,
        procs: int,
        *,
        scale: float = 1.0,
        machine: MachineSpec = POWER3_SP,
        seed: int = 0,
        faults: Any = None,
    ) -> "SweepPoint":
        """One (app, policy, CPU-count) cell of Figure 7 / trace volume."""
        return cls("policy", procs, app=app, policy=policy,
                   machine=machine, seed=seed, scale=scale,
                   params=_faults_params(faults))

    @classmethod
    def confsync(
        cls,
        procs: int,
        *,
        change: bool = False,
        stats: bool = False,
        reps: int = 16,
        machine: MachineSpec = POWER3_SP,
        seed: int = 0,
    ) -> "SweepPoint":
        """One Figure 8 cell: average VT_confsync cost."""
        return cls("confsync", procs, machine=machine, seed=seed,
                   params=(("change", change), ("reps", reps), ("stats", stats)))

    @classmethod
    def instrument(
        cls,
        app: str,
        procs: int,
        *,
        scale: float = 0.02,
        machine: MachineSpec = POWER3_SP,
        seed: int = 0,
        faults: Any = None,
    ) -> "SweepPoint":
        """One Figure 9 cell: dynprof's create+instrument wall time."""
        return cls("instrument", procs, app=app,
                   machine=machine, seed=seed, scale=scale,
                   params=_faults_params(faults))

    @classmethod
    def selftest(cls, mode: str = "echo", **params: Any) -> "SweepPoint":
        """Internal: a point exercising the worker machinery itself."""
        items = tuple({"mode": mode, **params}.items())
        return cls("selftest", 1, params=items)

    # -- accessors ------------------------------------------------------------

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def label(self) -> str:
        """Short human-readable identity, used in telemetry events and
        to key per-point side documents.  It names the machine unless it
        is the default ``power3-sp``, and tags a machine that differs
        from the preset of its name with a digest of its constants
        (``power3-sp~1a2b3c4d``), so grids on two machines, or on a
        preset and its ablation, never clash."""
        parts = [self.kind]
        if self.app:
            parts.append(self.app)
        if self.policy:
            parts.append(self.policy)
        machine = self.machine
        tag = machine.variant_tag
        if tag:
            parts.append(f"{machine.name}~{tag}")
        elif machine.name != POWER3_SP.name:
            parts.append(machine.name)
        flags = ",".join(f"{k}={v}" for k, v in self.params)
        tail = f"@{self.procs}"
        if flags:
            tail += f"[{flags}]"
        return ":".join(parts) + tail

    def canonical_head(self) -> Dict[str, Any]:
        """:meth:`canonical` without its ``machine`` block: the point's
        own small fields, as a fresh dict."""
        return {
            "kind": self.kind,
            "app": self.app,
            "policy": self.policy,
            "procs": self.procs,
            "seed": self.seed,
            "scale": self.scale,
            "params": dict(self.params),
        }

    def canonical(self) -> Dict[str, Any]:
        """Stable, JSON-safe description of the point.

        Includes every cost-model constant of the machine, so a point
        run against an ablated :class:`MachineSpec` never aliases the
        stock one in the cache.  Every call returns fresh dicts, so a
        caller may mutate them.
        """
        doc = self.canonical_head()
        doc["machine"] = self.machine.canonical()
        return doc

    @classmethod
    def from_canonical(cls, doc: Dict[str, Any]) -> "SweepPoint":
        """Rebuild a point from :meth:`canonical` output.

        The round trip is exact — same cache key, same label — which is
        what lets ``replay verify`` re-run the point an order log's
        metadata describes.
        """
        machine = doc["machine"]
        if not isinstance(machine, MachineSpec):
            machine = MachineSpec(**machine)
        return cls(
            kind=doc["kind"],
            procs=doc["procs"],
            app=doc.get("app"),
            policy=doc.get("policy"),
            machine=machine,
            seed=doc.get("seed", 0),
            scale=doc.get("scale", 1.0),
            params=tuple(dict(doc.get("params") or {}).items()),
        )
