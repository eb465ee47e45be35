"""Declarative fault plans — what goes wrong, where, and when.

A :class:`FaultPlan` is an ordered tuple of :class:`FaultSpec` entries.
Plans are frozen, JSON round-trippable, and canonicalize to a stable
compact string, so a plan can ride a :class:`~repro.runner.point.SweepPoint`
parameter into worker processes and into the content-addressed result
cache (a faulty run never aliases a clean one).

Determinism: a plan describes *probabilities and windows*, never draws.
All randomness is drawn at injection time by the
:class:`~repro.faults.injector.FaultInjector` from dedicated named RNG
streams under the cluster's root seed, so the same (plan, seed) pair
reproduces the same faults bit-for-bit — and an *empty* plan draws
nothing at all, leaving the simulation untouched.

Fault kinds
-----------

``daemon_crash``
    The DPCL daemons on node ``node`` are down during [start, end):
    every request delivered to them is silently dropped (a crashed
    process reads nothing from its sockets).  ``end=None`` means the
    daemon never comes back; a finite ``end`` models crash + restart.
``message_loss``
    Each DPCL control message (request, ack, callback) sent during
    [start, end) is dropped with probability ``probability``.
``message_delay``
    Each control message is delayed by an exponential draw with mean
    ``delay`` seconds (on top of the normal wire time), during
    [start, end).
``probe_install_fail``
    Each probe-install operation on node ``node`` (or any node when
    ``node`` is None) fails with probability ``probability`` — the
    ptrace-poke analog of an unwritable text page.
``rank_stall``
    Rank ``rank`` is suspended at ``start`` and resumed at ``end``
    (both required) — an OS-level stop the tool did not ask for.
``rank_slowdown``
    Rank ``rank`` (or every rank when None) runs all compute at
    ``factor`` times its normal cost — a degraded core or a noisy
    neighbour.
``vt_write_fail``
    Each VT trace-buffer write on rank ``rank`` (or any rank when None)
    fails with probability ``probability`` during [start, end); the
    record is lost, the run continues.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Sequence, Tuple

from .._record import FrozenRecord

__all__ = ["FaultSpec", "FaultPlan", "FAULT_KINDS", "CANNED_PLANS", "canned_plan"]

FAULT_KINDS = (
    "daemon_crash",
    "message_loss",
    "message_delay",
    "probe_install_fail",
    "rank_stall",
    "rank_slowdown",
    "vt_write_fail",
)

#: Which optional fields each kind accepts (beyond start/end).
_KIND_FIELDS = {
    "daemon_crash": {"node"},
    "message_loss": {"probability"},
    "message_delay": {"delay"},
    "probe_install_fail": {"node", "probability"},
    "rank_stall": {"rank"},
    "rank_slowdown": {"rank", "factor"},
    "vt_write_fail": {"rank", "probability"},
}


class FaultSpec(FrozenRecord):
    """One scheduled fault.  Unused fields stay at their defaults.

    ``node`` targets a node index (daemon_crash, probe_install_fail)
    and ``rank`` a rank (rank_stall, rank_slowdown, vt_write_fail);
    None means any.  The window is [``start``, ``end``) in simulated
    seconds, ``end=None`` meaning forever.  ``probability`` is the
    per-event probability of the probabilistic kinds, ``factor`` the
    compute multiplier of rank_slowdown and ``delay`` the mean added
    delay (seconds) of message_delay.
    """

    _fields = ("kind", "node", "rank", "start", "end", "probability",
               "factor", "delay")

    def __init__(
        self,
        kind: str,
        node: Optional[int] = None,
        rank: Optional[int] = None,
        start: float = 0.0,
        end: Optional[float] = None,
        probability: float = 1.0,
        factor: float = 1.0,
        delay: float = 0.0,
    ) -> None:
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; known: {FAULT_KINDS}"
            )
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability {probability} outside [0, 1]")
        if start < 0.0:
            raise ValueError(f"negative start {start}")
        if end is not None and end < start:
            raise ValueError(f"end {end} before start {start}")
        if factor <= 0.0:
            raise ValueError(f"non-positive slowdown factor {factor}")
        if delay < 0.0:
            raise ValueError(f"negative delay {delay}")
        if kind == "rank_stall":
            if rank is None:
                raise ValueError("rank_stall needs an explicit rank")
            if end is None:
                raise ValueError("rank_stall needs a finite end (resume time)")
        if kind == "daemon_crash" and node is None:
            raise ValueError("daemon_crash needs an explicit node")
        self.__dict__.update(kind=kind, node=node, rank=rank, start=start,
                             end=end, probability=probability, factor=factor,
                             delay=delay)

    def active_at(self, now: float) -> bool:
        """True while ``now`` falls inside this spec's [start, end)."""
        return now >= self.start and (self.end is None or now < self.end)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict carrying only the fields this kind uses."""
        doc: Dict[str, Any] = {"kind": self.kind}
        if self.start != 0.0:
            doc["start"] = self.start
        if self.end is not None:
            doc["end"] = self.end
        fields = _KIND_FIELDS[self.kind]
        if "node" in fields and self.node is not None:
            doc["node"] = self.node
        if "rank" in fields and self.rank is not None:
            doc["rank"] = self.rank
        if "probability" in fields:
            doc["probability"] = self.probability
        if "factor" in fields:
            doc["factor"] = self.factor
        if "delay" in fields:
            doc["delay"] = self.delay
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "FaultSpec":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ValueError(f"fault spec must be a dict with 'kind': {doc!r}")
        known = {"kind", "node", "rank", "start", "end",
                 "probability", "factor", "delay"}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"fault spec has unknown fields {sorted(unknown)}: {doc!r}"
            )
        return cls(**doc)


class FaultPlan(FrozenRecord):
    """An ordered, frozen collection of fault specs.

    ``note`` is a free-form provenance note: it takes part in equality,
    but not in the canonical identity.
    """

    _fields = ("specs", "note")

    def __init__(self, specs: Tuple[FaultSpec, ...] = (), note: str = "") -> None:
        self.__dict__.update(specs=specs, note=note)

    @classmethod
    def of(cls, *specs: FaultSpec, note: str = "") -> "FaultPlan":
        return cls(specs=tuple(specs), note=note)

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls()

    @property
    def is_empty(self) -> bool:
        return not self.specs

    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def by_kind(self, kind: str) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.kind == kind)

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"faults": [s.to_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any], note: str = "") -> "FaultPlan":
        if isinstance(doc, list):
            specs = doc
        elif isinstance(doc, dict):
            specs = doc.get("faults", [])
            if not isinstance(specs, list):
                raise ValueError("'faults' must be a list of fault specs")
        else:
            raise ValueError(f"fault plan must be a dict or list: {doc!r}")
        return cls(
            specs=tuple(FaultSpec.from_dict(s) for s in specs), note=note
        )

    def canonical(self) -> str:
        """Compact, key-sorted JSON string — the plan's stable identity
        (suitable as a :class:`SweepPoint` parameter / cache-key input)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str, note: str = "") -> "FaultPlan":
        return cls.from_dict(json.loads(text), note=note)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), note=path)

    def __repr__(self) -> str:
        kinds = ",".join(s.kind for s in self.specs) or "empty"
        return f"<FaultPlan {kinds}>"


# -- canned plans (chaos CLI presets, CI smoke) ---------------------------------


def _daemon_crash_attach() -> FaultPlan:
    """The acceptance scenario: the comm daemon on node 1 dies just as
    the tool is attaching, plus 1% control-message loss everywhere."""
    return FaultPlan.of(
        FaultSpec("daemon_crash", node=1, start=0.0),
        FaultSpec("message_loss", probability=0.01),
        note="canned:daemon-crash-attach",
    )


def _flaky_network() -> FaultPlan:
    return FaultPlan.of(
        FaultSpec("message_loss", probability=0.05),
        FaultSpec("message_delay", delay=0.005),
        note="canned:flaky-network",
    )


def _straggler() -> FaultPlan:
    return FaultPlan.of(
        FaultSpec("rank_slowdown", rank=1, factor=1.5),
        FaultSpec("vt_write_fail", probability=0.02),
        note="canned:straggler",
    )


CANNED_PLANS = {
    "daemon-crash-attach": _daemon_crash_attach,
    "flaky-network": _flaky_network,
    "straggler": _straggler,
}


def canned_plan(name: str) -> FaultPlan:
    """A named preset plan (``chaos --plan NAME``)."""
    try:
        return CANNED_PLANS[name]()
    except KeyError:
        raise KeyError(
            f"unknown canned fault plan {name!r}; "
            f"known: {', '.join(sorted(CANNED_PLANS))}"
        ) from None
