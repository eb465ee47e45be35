"""The DPCL client API used by monitoring tools (dynprof).

The client runs inside the instrumenter's simulation process.  Every
operation fans a request out to the communication daemons on the nodes
that host target processes and waits for all acknowledgements; because
message delays differ per node (exponential jitter), requests become
visible to targets at different times — DPCL's defining asynchrony.

Per-process *program structure* navigation (symbol table download) is
charged client-side and serially, which is what makes instrumentation
time grow with the number of MPI processes in Figure 9.

Robustness: every request goes through :meth:`DpclClient._transact`,
which gathers the whole wave and returns its failures as data: refused
acks, plus — under a non-default :class:`RequestPolicy`, which bounds
each wait with a timeout and resends to un-acked nodes with exponential
backoff — a synthetic ``"unreachable"`` ack for every node still silent
once the retry budget is spent.  The requests a tool can survive losing
part of (``connect``, ``attach``, ``install_probes``, ``resume``)
return their partial result beside the failures; every other request
passes them to :func:`raise_failures`, which raises
:class:`DpclRequestError` for a refusal and
:class:`DaemonUnreachableError` for silence.  The default policy takes
the exact pre-faults path — no timers, no extra events — so fault-free
runs stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple, Union,
)

from ..cluster import Cluster, Node
from ..obs.tap import get as _tap_get
from ..simt import AnyOf, Channel, Environment
from .daemon import CommDaemon, DaemonHost, SuperDaemon, _dpcl_delay
from .messages import (
    Ack,
    ActivateProbeReq,
    AttachReq,
    CallbackMsg,
    ConnectReq,
    DetachReq,
    ExecuteSnippetReq,
    InstallProbeReq,
    RemoveProbeReq,
    ResumeReq,
    SetVariableReq,
    SuspendReq,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..program import ProbeHandle, Snippet

__all__ = [
    "DpclClient",
    "DpclError",
    "DpclRequestError",
    "DaemonUnreachableError",
    "RequestPolicy",
    "UNREACHABLE",
    "ensure_super_daemons",
    "raise_failures",
]

#: Sentinel returned by the bounded inbox wait when the timer fires.
_TIMED_OUT = object()

#: ``reason`` of the synthetic failed ack standing in for a daemon still
#: silent after the retry budget.
UNREACHABLE = "unreachable"


class DpclError(RuntimeError):
    """A daemon reported a failure for a client request."""


class DpclRequestError(DpclError):
    """A daemon processed a request and refused it.

    Carries the structured context a recovery layer needs: which node,
    which process, which request type, and the daemon's reason."""

    def __init__(
        self,
        message: str,
        node_index: Optional[int] = None,
        request: str = "",
        process: str = "",
        reason: str = "",
    ) -> None:
        super().__init__(message)
        self.node_index = node_index
        self.request = request
        self.process = process
        self.reason = reason


class DaemonUnreachableError(DpclError):
    """No acknowledgement from one or more daemons within the retry
    budget — the node's daemon is crashed or the network ate every
    resend."""

    def __init__(self, nodes: Sequence[int], request: str, attempts: int) -> None:
        self.nodes = tuple(sorted(nodes))
        self.request = request
        self.attempts = attempts
        super().__init__(
            f"no ack from daemon(s) on node(s) {list(self.nodes)} "
            f"after {attempts} attempt(s) of {request}"
        )


#: What a request returns beside its result: failed acks keyed by node
#: index, or (from :meth:`DpclClient.install_probes`) per-probe dicts.
Failures = Union[Dict[int, Ack], List[Dict[str, Any]]]


def raise_failures(failures: Failures) -> None:
    """Raise the structured error for a request's failures, if any.

    A refusal raises :class:`DpclRequestError` for the first refused
    node or probe; otherwise silence raises
    :class:`DaemonUnreachableError` naming every silent node.
    """
    if isinstance(failures, dict):
        failures = [dict(ack.error_info, error=ack.error) for ack in failures.values()]
    for info in failures:
        if info["reason"] != UNREACHABLE:
            raise DpclRequestError(
                f"daemon on node {info['node']}: {info['error']}",
                node_index=info["node"],
                request=info["request"],
                process=info.get("process", ""),
                reason=info["reason"],
            )
    if failures:
        first = failures[0]
        raise DaemonUnreachableError(
            sorted({info["node"] for info in failures}),
            first["request"], first["attempts"],
        )


@dataclass(frozen=True)
class RequestPolicy:
    """Client-side robustness knobs for daemon requests.

    The default (no timeout, no retries) reproduces the pre-faults
    client exactly: waits block forever and schedule no timer events,
    keeping fault-free runs bit-identical.
    """

    #: Max seconds to wait for each response message; None = forever.
    timeout: Optional[float] = None
    #: Resend waves after the first send (0 = never resend).
    max_retries: int = 0
    #: Pause before the first resend wave, in seconds.
    backoff: float = 0.05
    #: Backoff growth factor per successive wave.
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0.0:
            raise ValueError(f"non-positive timeout {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"negative max_retries {self.max_retries}")
        if self.backoff < 0.0:
            raise ValueError(f"negative backoff {self.backoff}")
        if self.backoff_multiplier <= 0.0:
            raise ValueError(
                f"non-positive backoff_multiplier {self.backoff_multiplier}"
            )
        if self.max_retries > 0 and self.timeout is None:
            raise ValueError("retries need a timeout to trigger on")


def ensure_super_daemons(env: Environment, cluster: Cluster, nodes: Sequence[Node], host: DaemonHost) -> List[SuperDaemon]:
    """Start a super daemon on each node that does not have one yet."""
    daemons = []
    for node in nodes:
        existing = getattr(node, "_super_daemon", None)
        if existing is None:
            existing = SuperDaemon(env, cluster, node, host)
            node._super_daemon = existing
        daemons.append(existing)
    return daemons


class DpclClient:
    """A monitoring tool's connection to the DPCL system."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        client_node: Node,
        host: DaemonHost,
        user: str = "user",
        policy: Optional[RequestPolicy] = None,
    ) -> None:
        self.env = env
        self.cluster = cluster
        self.spec = cluster.spec
        self.node = client_node
        self.host = host
        self.user = user
        self.policy = policy if policy is not None else RequestPolicy()
        self.inbox = Channel(env, name=f"dpcl-client@{client_node.hostname}")
        #: Callback messages not yet consumed by wait_callback().
        self._callbacks = Channel(env, name="dpcl-callbacks")
        self._req_ids = count(1)
        self._current_req = 0
        #: node index -> comm daemon inbox channel.
        self._daemon_inboxes: Dict[int, Channel] = {}
        #: process name -> node the process lives on.
        self._process_nodes: Dict[str, Node] = {}
        #: process name -> image (client-side program structure handle).
        self._attached: Dict[str, Any] = {}
        #: Late acks from timed-out requests, dropped not raised.
        self.stale_acks = 0
        #: Resend waves performed across all requests.
        self.retries = 0
        self._tap = _tap_get()

    # -- low-level plumbing ------------------------------------------------------

    def _new_request_fields(self) -> Tuple[int, Channel, Node]:
        req_id = next(self._req_ids)
        self._current_req = req_id
        return req_id, self.inbox, self.node

    def _send_to_node(self, node: Node, channel: Channel, msg: Any, nbytes: int = 256) -> None:
        self.cluster.interconnect.deliver(
            self.node, node, nbytes, channel, msg,
            extra_delay=_dpcl_delay(self.cluster, self.node),
            control=True,
        )

    def _get_with_timeout(self, timeout: Optional[float]) -> Generator:
        """Next inbox message, or ``_TIMED_OUT`` after ``timeout``.

        ``timeout=None`` is a plain blocking get — no timer event is
        created, so the default policy perturbs nothing.
        """
        if timeout is None:
            msg = yield self.inbox.get()
            return msg
        get_ev = self.inbox.get()
        timer = self.env.timeout(timeout)
        yield AnyOf(self.env, [get_ev, timer])
        if get_ev.processed:
            # The reply won the race: withdraw the loser timer instead
            # of letting it rot in the event queue until it expires
            # (lazy deletion — O(1), and the clock is never dragged
            # forward to a timeout nobody is waiting on).
            self.env.cancel(timer)
            return get_ev.value
        # The timer won the race.  The get may still have been served in
        # the same instant (put scheduled it behind the timer): cancel()
        # returning False means a message is on the event — consume it
        # rather than lose it.
        if not self.inbox.cancel(get_ev) and get_ev.triggered:
            return get_ev.value
        return _TIMED_OUT

    def _transact(self, sends: Sequence[Tuple[Node, Channel, Any, int]]) -> Generator:
        """Send one request wave and gather the whole wave's answers.

        Returns ``(acks, failures)``: the ok acks in arrival order, and
        the failed ones keyed by node index.  Under a timeout policy,
        un-acked nodes get resend waves with exponential backoff; each
        node still silent after the budget gets a synthetic failed ack
        whose ``error_info["reason"]`` is ``"unreachable"``.
        """
        req_id = sends[0][2].req_id
        request = type(sends[0][2]).__name__
        pending: Dict[int, Tuple[Node, Channel, Any, int]] = {
            node.index: (node, inbox, msg, nbytes)
            for node, inbox, msg, nbytes in sends
        }
        acks: List[Ack] = []
        failures: Dict[int, Ack] = {}
        seen: set = set()
        attempt = 0
        backoff = self.policy.backoff
        while True:
            attempt += 1
            for node, inbox, msg, nbytes in pending.values():
                self._send_to_node(node, inbox, msg, nbytes=nbytes)
            while pending:
                msg = yield from self._get_with_timeout(self.policy.timeout)
                if msg is _TIMED_OUT:
                    if self._tap.enabled:
                        self._tap.inc("dpcl.timeouts")
                    break
                if isinstance(msg, CallbackMsg):
                    self._callbacks.put(msg)
                    continue
                if not isinstance(msg, Ack):
                    raise TypeError(f"client got unexpected message {msg!r}")
                if msg.req_id != req_id:
                    if msg.req_id < req_id:
                        # Straggler ack from a request we gave up on.
                        self._note_stale_ack()
                        continue
                    raise DpclError(
                        f"out-of-order ack: got req {msg.req_id}, expected {req_id}"
                    )
                if msg.node_index in seen:
                    continue  # duplicate from a resend race
                seen.add(msg.node_index)
                pending.pop(msg.node_index, None)
                if msg.ok:
                    acks.append(msg)
                else:
                    failures[msg.node_index] = msg
            if not pending:
                return acks, failures
            if attempt > self.policy.max_retries:
                for idx in sorted(pending):
                    failures[idx] = Ack(
                        req_id, idx, ok=False,
                        error=f"daemon unreachable for {request}",
                        error_info={"node": idx, "request": request,
                                    "reason": UNREACHABLE, "attempts": attempt},
                    )
                if self._tap.enabled:
                    self._tap.inc("dpcl.unreachable", len(pending))
                return acks, failures
            self.retries += 1
            if self._tap.enabled:
                self._tap.inc("dpcl.retries")
            if backoff > 0.0:
                yield self.env.timeout(backoff)
            backoff *= self.policy.backoff_multiplier

    def _fan_out(
        self,
        processes: Sequence[str],
        build: Callable[[Tuple[int, Channel, Node], List[int]], Any],
        nbytes: Callable[[Any], int] = lambda req: 256,
    ) -> Generator:
        """One request wave to the daemons hosting ``processes``.

        ``build(head, positions)`` makes one node's request from the
        request head ``(req_id, reply_to, reply_node)`` and the positions
        in ``processes`` that node serves.  Returns ``(acks, failures,
        positions)`` with ``positions`` keyed by node index.
        """
        groups: Dict[int, Tuple[Node, Channel, List[int]]] = {}
        for position, name in enumerate(processes):
            node, inbox = self._daemon_inbox_for(name)
            group = groups.get(node.index)
            if group is None:
                group = groups[node.index] = (node, inbox, [])
            group[2].append(position)
        if not groups:
            return [], {}, {}
        head = self._new_request_fields()
        sends = []
        for node, inbox, positions in groups.values():
            req = build(head, positions)
            sends.append((node, inbox, req, nbytes(req)))
        acks, failures = yield from self._transact(sends)
        return acks, failures, {idx: group[2] for idx, group in groups.items()}

    def _per_process(self, names: List[str], request: type, **fields: Any) -> Generator:
        """Fan a ``process_names`` request out over ``names``."""
        return self._fan_out(names, lambda head, positions: request(
            *head, process_names=[names[i] for i in positions], **fields
        ))

    def _note_stale_ack(self) -> None:
        self.stale_acks += 1
        if self._tap.enabled:
            self._tap.inc("dpcl.stale_acks")

    # -- connection management ------------------------------------------------------

    def connect(self, process_locations: Dict[str, Node]) -> Generator:
        """Connect to the super daemons of every node hosting a target.

        ``process_locations`` maps process name -> node.  After connect,
        the client can attach to those processes.  Returns ``(acks,
        failures)``; a failed node stays unconnected.
        """
        self._process_nodes.update(process_locations)
        nodes = {n.index: n for n in process_locations.values()}
        new_nodes = [n for idx, n in nodes.items() if idx not in self._daemon_inboxes]
        if not new_nodes:
            return [], {}
        ensure_super_daemons(self.env, self.cluster, new_nodes, self.host)
        req_id, reply_to, reply_node = self._new_request_fields()
        sends = [
            (node, node.superdaemon_inbox,
             ConnectReq(req_id, reply_to, reply_node, user=self.user), 256)
            for node in new_nodes
        ]
        acks, failures = yield from self._transact(sends)
        for ack in acks:
            self._daemon_inboxes[ack.node_index] = ack.payload
            # Route callbacks from this node's daemon to us.
            daemon = self._find_daemon(ack.node_index)
            if daemon is not None:
                daemon.set_callback_client(self.inbox, self.node)
        return acks, failures

    def _find_daemon(self, node_index: int) -> Optional[CommDaemon]:
        node = self.cluster.node(node_index)
        superd = getattr(node, "_super_daemon", None)
        if superd is None:
            return None
        return superd.comm_daemons.get(self.user)

    def _daemon_inbox_for(self, process_name: str) -> Tuple[Node, Channel]:
        node = self._process_nodes.get(process_name)
        if node is None:
            raise DpclError(f"unknown process {process_name!r}; connect() first")
        inbox = self._daemon_inboxes.get(node.index)
        if inbox is None:
            raise DpclError(f"not connected to node {node.hostname}")
        return node, inbox

    def is_connected_to(self, process_name: str) -> bool:
        """True if the daemon serving ``process_name`` is connected."""
        node = self._process_nodes.get(process_name)
        return node is not None and node.index in self._daemon_inboxes

    # -- attach / structure navigation -------------------------------------------------

    def attach(self, process_names: Sequence[str]) -> Generator:
        """Attach to targets and walk their program structure client-side.

        Returns ``(attached_names, failures)``: processes on a node whose
        daemon refused or never answered are skipped.
        """
        names = list(process_names)
        _acks, failures, _positions = yield from self._per_process(names, AttachReq)
        names_ok = [
            name for name in names
            if self._process_nodes[name].index not in failures
        ]
        # Client-side program-structure download per process (serial).
        for name in names_ok:
            target = self.host.lookup(name)
            if target is None:
                raise DpclRequestError(
                    f"process {name!r} vanished during attach",
                    process=name, request="AttachReq", reason="vanished",
                )
            _task, image = target
            n_symbols = len(image.functions)
            yield self.env.timeout(
                self.spec.dpcl_client_per_process_cost
                + n_symbols * self.spec.dpcl_client_per_symbol_cost
            )
            self._attached[name] = image
        return names_ok, failures

    @property
    def attached_processes(self) -> List[str]:
        return list(self._attached)

    def image_of(self, process_name: str):
        """The attached process's program structure (its image handle)."""
        image = self._attached.get(process_name)
        if image is None:
            raise DpclError(f"process {process_name!r} not attached")
        return image

    # -- probe management -----------------------------------------------------------------

    def install_probes(
        self,
        probes: Sequence[Tuple[str, str, str, "Snippet"]],
        register_names: Sequence[Tuple[str, str]] = (),
        activate: bool = True,
    ) -> Generator:
        """Install probes: (process, function, where, snippet) tuples.

        Work is fanned out per node and proceeds in parallel across
        daemons.  Returns ``(handles, failures)``: the installed
        :class:`ProbeHandle` s aligned with ``probes`` (None where a
        probe could not be installed), and one dict per failed probe:
        process, function, node, request, reason, and the ``error`` text
        :func:`raise_failures` reports.
        """
        registrations: Dict[int, List[Tuple[str, str]]] = {}
        for process_name, fname in register_names:
            node, _inbox = self._daemon_inbox_for(process_name)
            registrations.setdefault(node.index, []).append((process_name, fname))

        def build(head, positions):
            node = self._process_nodes[probes[positions[0]][0]]
            return InstallProbeReq(
                *head, probes=[tuple(probes[i]) for i in positions],
                register_names=registrations.get(node.index, []),
                activate=activate,
            )

        acks, node_failures, positions = yield from self._fan_out(
            [probe[0] for probe in probes], build,
            nbytes=lambda req: 512 + 64 * len(req.probes),
        )
        handles: List[Optional[Any]] = [None] * len(probes)
        failures: List[Dict[str, Any]] = []
        for ack in acks:
            for index, (status, value) in zip(positions[ack.node_index], ack.payload):
                if status == "ok":
                    handles[index] = value
                else:
                    failures.append(dict(
                        value, node=ack.node_index, request="InstallProbeReq",
                        error=f"probe install failed for {value['function']!r} "
                              f"in {value['process']!r}: {value['reason']}",
                    ))
        for node_index, ack in node_failures.items():
            for index in positions[node_index]:
                failures.append(dict(
                    ack.error_info, process=probes[index][0],
                    function=probes[index][1], error=ack.error,
                ))
        return handles, failures

    def remove_probes(self, handles: Sequence["ProbeHandle"]) -> Generator:
        """Remove installed probes; returns the number removed."""
        handles = list(handles)
        acks, failures, _positions = yield from self._fan_out(
            [handle.image_name for handle in handles],
            lambda head, positions: RemoveProbeReq(
                *head, handles=[handles[i] for i in positions]
            ),
        )
        raise_failures(failures)
        return sum(ack.payload for ack in acks)

    def set_probes_active(self, handles: Sequence["ProbeHandle"], active: bool) -> Generator:
        handles = list(handles)
        acks, failures, _positions = yield from self._fan_out(
            [handle.image_name for handle in handles],
            lambda head, positions: ActivateProbeReq(
                *head, handles=[handles[i] for i in positions], active=active
            ),
        )
        raise_failures(failures)
        return sum(ack.payload for ack in acks)

    # -- execution control ---------------------------------------------------------------------

    def suspend(self, process_names: Optional[Sequence[str]] = None, blocking: bool = True) -> Generator:
        """Suspend targets (all attached by default)."""
        names = list(process_names) if process_names is not None else self.attached_processes
        _acks, failures, _positions = yield from self._per_process(
            names, SuspendReq, blocking=blocking
        )
        raise_failures(failures)
        return len(names)

    def resume(self, process_names: Optional[Sequence[str]] = None) -> Generator:
        """Resume targets (all attached by default); returns ``(n_resumed,
        failures)``."""
        names = list(process_names) if process_names is not None else self.attached_processes
        _acks, failures, positions = yield from self._per_process(names, ResumeReq)
        n_resumed = len(names) - sum(len(positions[idx]) for idx in failures)
        return n_resumed, failures

    def set_variable(self, process_name: str, variable: str, value: Any = 1) -> Generator:
        """Write a variable in one target (releases DYNVT_spin waits)."""
        _acks, failures, _positions = yield from self._fan_out(
            [process_name],
            lambda head, _positions: SetVariableReq(
                *head, process_name=process_name, variable=variable, value=value
            ),
        )
        raise_failures(failures)

    def execute_snippet(self, process_name: str, snippet: "Snippet") -> Generator:
        """One-shot inferior call in a stopped target; returns its value.

        The DPCL 'execute' primitive: evaluate code in the target's
        address space immediately instead of installing it at a probe
        point — how tools run VT_funcdef-style registration calls.
        """
        acks, failures, _positions = yield from self._fan_out(
            [process_name],
            lambda head, _positions: ExecuteSnippetReq(
                *head, process_name=process_name, snippet=snippet
            ),
        )
        raise_failures(failures)
        return acks[0].payload

    def detach(self) -> Generator:
        """Detach from everything; active probes stay in the targets."""
        nodes = dict(self._daemon_inboxes)
        if not nodes:
            return 0
        req_id, reply_to, reply_node = self._new_request_fields()
        sends = [
            (self.cluster.node(idx), inbox,
             DetachReq(req_id, reply_to, reply_node), 256)
            for idx, inbox in nodes.items()
        ]
        acks, failures = yield from self._transact(sends)
        raise_failures(failures)
        self._attached.clear()
        return sum(a.payload for a in acks)

    # -- callbacks ------------------------------------------------------------------------------

    def wait_callback(
        self,
        tag: Optional[str] = None,
        n: int = 1,
        timeout: Optional[float] = None,
    ) -> Generator:
        """Wait for ``n`` callback messages (optionally filtered by tag).

        Messages queued while waiting for acks are consumed first.  Late
        acks from timed-out requests are dropped, not fatal.  With a
        ``timeout``, gives up ``timeout`` seconds after the last message
        and returns what arrived (possibly fewer than ``n``) — the
        caller inspects the shortfall and quarantines the silent ranks.
        """
        got: List[CallbackMsg] = []
        while len(got) < n:
            if len(self._callbacks):
                msg = yield self._callbacks.get()
            else:
                msg = yield from self._get_with_timeout(timeout)
                if msg is _TIMED_OUT:
                    if self._tap.enabled:
                        self._tap.inc("dpcl.timeouts")
                    return got
            if isinstance(msg, Ack):
                self._note_stale_ack()
                continue
            if isinstance(msg, CallbackMsg) and (tag is None or msg.tag == tag):
                got.append(msg)
        return got

    def __repr__(self) -> str:
        return (
            f"<DpclClient {self.user}@{self.node.hostname} "
            f"daemons={len(self._daemon_inboxes)} attached={len(self._attached)}>"
        )
