"""The Table 3 instrumentation policies as data.

Their names, their descriptions and :class:`PolicyResult`, the record
one Figure 7 cell yields.  Nothing here loads the simulator, so the CLI
can list the policies and rebuild cached cells without it;
:mod:`repro.dynprof.policies` runs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

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


@dataclass
class PolicyResult:
    """One cell of Figure 7 (plus diagnostics)."""

    app: str
    policy: str
    n_cpus: int
    scale: float
    #: Max over ranks of the main-computation elapsed time (the paper's
    #: reported program time).
    time: float
    per_rank_times: List[float] = field(default_factory=list)
    trace_records: int = 0
    trace_bytes: int = 0
    #: Time dynprof spent creating + instrumenting (Figure 9); None for
    #: the static policies.
    instrument_time: Optional[float] = None
    #: Fault-injection report (injected counts, quarantined ranks,
    #: coverage); None for fault-free runs.
    faults: Optional[Dict[str, Any]] = None

    def __repr__(self) -> str:
        return (
            f"<{self.app}/{self.policy}@{self.n_cpus}cpu "
            f"time={self.time:.2f}s records={self.trace_records}>"
        )
