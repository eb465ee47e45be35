"""The Table 3 instrumentation policies as data.

Their names, their descriptions and :class:`PolicyResult`, the record
one Figure 7 cell yields.  Nothing here loads the simulator, so the CLI
can list the policies and rebuild cached cells without it;
:mod:`repro.dynprof.policies` runs them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .._record import Record

__all__ = ["POLICIES", "PolicyResult", "policy_description"]

POLICIES = ("Full", "Full-Off", "Subset", "None", "Dynamic")

_DESCRIPTIONS = {
    "Full": "All functions are statically instrumented.",
    "Full-Off": "All functions are statically instrumented but disabled "
                "using the configuration file.",
    "Subset": "All functions are statically instrumented with only an "
              "important subset left active.",
    "None": "No subroutine instrumentation is inserted.",
    "Dynamic": "The dynprof tool is used to dynamically instrument the "
               "same functions used by Subset.",
}


def policy_description(policy: str) -> str:
    """The Table 3 description of one instrumentation policy."""
    return _DESCRIPTIONS[policy]


class PolicyResult(Record):
    """One cell of Figure 7 (plus diagnostics).

    ``time`` is the max over ranks of the main-computation elapsed time
    (the paper's reported program time).  ``instrument_time`` is the
    time dynprof spent creating + instrumenting (Figure 9), None for
    the static policies; ``faults`` is the fault-injection report
    (injected counts, quarantined ranks, coverage), None for
    fault-free runs.
    """

    _fields = ("app", "policy", "n_cpus", "scale", "time", "per_rank_times",
               "trace_records", "trace_bytes", "instrument_time", "faults")

    def __init__(
        self,
        app: str,
        policy: str,
        n_cpus: int,
        scale: float,
        time: float,
        per_rank_times: Optional[List[float]] = None,
        trace_records: int = 0,
        trace_bytes: int = 0,
        instrument_time: Optional[float] = None,
        faults: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.app = app
        self.policy = policy
        self.n_cpus = n_cpus
        self.scale = scale
        self.time = time
        self.per_rank_times = [] if per_rank_times is None else per_rank_times
        self.trace_records = trace_records
        self.trace_bytes = trace_bytes
        self.instrument_time = instrument_time
        self.faults = faults

    def to_dict(self) -> Dict[str, Any]:
        """Every field by name, in declaration order: the cached payload
        of a ``policy`` point, which ``PolicyResult(**payload)``
        rebuilds."""
        return {name: getattr(self, name) for name in self._fields}

    def __repr__(self) -> str:
        return (
            f"<{self.app}/{self.policy}@{self.n_cpus}cpu "
            f"time={self.time:.2f}s records={self.trace_records}>"
        )
