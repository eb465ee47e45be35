"""Wire messages between the DPCL client and its daemons."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

__all__ = [
    "DpclRequest",
    "ConnectReq",
    "AttachReq",
    "InstallProbeReq",
    "RemoveProbeReq",
    "ActivateProbeReq",
    "SuspendReq",
    "ResumeReq",
    "SetVariableReq",
    "ExecuteSnippetReq",
    "DetachReq",
    "Ack",
    "CallbackMsg",
]


@dataclass
class DpclRequest:
    """Base request: every request carries a client-assigned id and the
    channel responses should be sent back on."""

    req_id: int
    reply_to: Any  # simt Channel of the client
    reply_node: Any  # Node the client runs on


@dataclass
class ConnectReq(DpclRequest):
    """To a super daemon: authenticate the user, fork a comm daemon."""

    user: str = "user"


@dataclass
class AttachReq(DpclRequest):
    """To a comm daemon: attach to the named local processes."""

    process_names: List[str] = field(default_factory=list)


@dataclass
class InstallProbeReq(DpclRequest):
    """Install (and optionally activate) probes in attached processes.

    ``probes`` is a list of (process_name, function, where, snippet).
    ``register_names`` lists function names to VT_funcdef in each target
    before the probes go live (dynprof must register names with the VT
    library, Section 3.4).
    """

    probes: List[Tuple[str, str, str, Any]] = field(default_factory=list)
    register_names: List[Tuple[str, str]] = field(default_factory=list)
    activate: bool = True


@dataclass
class RemoveProbeReq(DpclRequest):
    """Remove previously installed probes by handle."""

    handles: List[Any] = field(default_factory=list)


@dataclass
class ActivateProbeReq(DpclRequest):
    """Toggle activation of installed probes."""

    handles: List[Any] = field(default_factory=list)
    active: bool = True


@dataclass
class SuspendReq(DpclRequest):
    """Suspend attached processes; blocking waits until they stop."""

    process_names: Optional[List[str]] = None  # None = all attached
    blocking: bool = True


@dataclass
class ResumeReq(DpclRequest):
    process_names: Optional[List[str]] = None


@dataclass
class SetVariableReq(DpclRequest):
    """Poke a variable in a target's address space (spin release)."""

    process_name: str = ""
    variable: str = ""
    value: Any = 1


@dataclass
class ExecuteSnippetReq(DpclRequest):
    """One-shot 'inferior call': run a snippet once in a stopped target.

    This is DPCL's execute-style probe: code evaluated immediately in
    the target's address space rather than installed at a probe point.
    Blocking snippets are rejected (an inferior call cannot wait)."""

    process_name: str = ""
    snippet: Any = None


@dataclass
class DetachReq(DpclRequest):
    """Detach from all targets; installed probes stay in place."""


@dataclass
class Ack:
    """Daemon response to one request."""

    req_id: int
    node_index: int
    payload: Any = None
    ok: bool = True
    error: str = ""
    #: Structured failure context ({"node", "request", "process",
    #: "reason"}; the client's synthetic "unreachable" ack carries
    #: "attempts" instead of "process") when ``ok`` is False; None on
    #: success.
    error_info: Optional[dict] = None


@dataclass
class CallbackMsg:
    """Message sent to the client by dynamically inserted code
    (``DPCL_callback`` in Figure 6)."""

    tag: str
    process_name: str
    data: Any = None
