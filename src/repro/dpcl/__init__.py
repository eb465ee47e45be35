"""repro.dpcl — the Dynamic Probe Class Library analog (Figure 5).

Super daemons (one per node) authenticate users and fork communication
daemons; communication daemons attach to local target processes and
perform the actual patching; a :class:`DpclClient` gives monitoring
tools an asynchronous request/ack API plus target-initiated callbacks
(``DPCL_callback``).
"""

from .client import (
    DaemonUnreachableError,
    DpclClient,
    DpclError,
    DpclRequestError,
    RequestPolicy,
    ensure_super_daemons,
    raise_failures,
)
from .daemon import CommDaemon, DaemonHost, SuperDaemon
from .messages import Ack, CallbackMsg

__all__ = [
    "DpclClient",
    "DpclError",
    "DpclRequestError",
    "DaemonUnreachableError",
    "RequestPolicy",
    "ensure_super_daemons",
    "raise_failures",
    "SuperDaemon",
    "CommDaemon",
    "DaemonHost",
    "Ack",
    "CallbackMsg",
]
