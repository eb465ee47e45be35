"""The MPI transport: mailboxes, matching, wire-time scheduling.

Messages travel through the cluster :class:`Interconnect` with sampled
latency/bandwidth.  Because latency jitter could reorder two messages on
the same (source, destination, context) flow, arrival times are clamped
to be non-decreasing per flow — preserving MPI's non-overtaking
guarantee.

Matching follows the standard: a posted receive matches the earliest-
arrived envelope with a compatible (source, tag) in the same context;
unexpected messages queue at the receiver until a matching receive is
posted.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..cluster import Cluster, Node
from ..obs.tap import get as _tap_get
from ..simt import Environment, Event, Timeout
from .messages import Envelope

__all__ = ["Mailbox", "Transport"]


class Mailbox:
    """Per-rank incoming-message state."""

    def __init__(self, env: Environment, rank: int) -> None:
        self.env = env
        self.rank = rank
        self._unexpected: Deque[Envelope] = deque()
        #: Receives waiting for a match: (source, tag, context, event).
        self._posted: Deque[Tuple[int, int, str, Event]] = deque()
        self._tap = _tap_get()

    @property
    def unexpected_count(self) -> int:
        return len(self._unexpected)

    def arrive(self, wire: Timeout) -> None:
        """Wire-timeout callback: the timeout's value is the envelope."""
        self.deliver(wire._value)

    def deliver(self, envelope: Envelope) -> None:
        """An envelope has arrived on the wire."""
        envelope.arrived_at = self.env.now
        for position, (source, tag, context, event) in enumerate(self._posted):
            if envelope.matches(source, tag, context):
                del self._posted[position]
                event.succeed(envelope)
                break
        else:
            self._unexpected.append(envelope)
            position = -1  # filed as unexpected: no posted receive matched
        if self._tap.enabled:
            self._tap.mpi_deliver(envelope, self.rank, position,
                                  len(self._unexpected))

    def post_recv(self, source: int, tag: int, context: str) -> Event:
        """Post a receive; the event triggers with the matched envelope."""
        event = Event(self.env)
        for position, envelope in enumerate(self._unexpected):
            if envelope.matches(source, tag, context):
                del self._unexpected[position]
                event.succeed(envelope)
                if self._tap.enabled:
                    self._tap.mpi_match(envelope, self.rank, position,
                                        self.env.now)
                return event
        self._posted.append((source, tag, context, event))
        return event

    def probe(self, source: int, tag: int, context: str) -> Optional[Envelope]:
        """Non-destructive match against the unexpected queue (MPI_Iprobe)."""
        for envelope in self._unexpected:
            if envelope.matches(source, tag, context):
                return envelope
        return None

    def cancel_recv(self, event: Event) -> bool:
        """Withdraw a posted receive (MPI_Cancel on a recv request).

        Two cases:

        * the receive is still posted and unmatched — it is simply
          removed from the posted queue;
        * the receive already matched an envelope but the completion
          event has not been processed yet (it is riding the event
          queue) — the match is undone: the event is lazily cancelled
          via :meth:`Environment.cancel` and the envelope is re-filed
          into the unexpected queue in arrival order, so a different
          receive can still match it.

        Returns True if the receive was withdrawn; False if it already
        completed (the caller owns the envelope) or was never ours.
        """
        for position, posted in enumerate(self._posted):
            if posted[3] is event:
                del self._posted[position]
                if self._tap.enabled:
                    self._tap.inc("mpi.cancelled_recvs")
                return True
        if event.triggered and not event.processed:
            envelope = event._value
            if isinstance(envelope, Envelope) and self.env.cancel(event):
                # Re-file preserving arrival order among the unexpected.
                arrived = envelope.arrived_at or 0.0
                for i, other in enumerate(self._unexpected):
                    if (other.arrived_at or 0.0) > arrived:
                        self._unexpected.insert(i, envelope)
                        break
                else:
                    self._unexpected.append(envelope)
                if self._tap.enabled:
                    self._tap.inc("mpi.cancelled_recvs")
                return True
        return False


class Transport:
    """Moves envelopes between ranks through the interconnect."""

    def __init__(self, env: Environment, cluster: Cluster, rank_nodes: List[Node]) -> None:
        self.env = env
        self.cluster = cluster
        self.interconnect = cluster.interconnect
        self.spec = cluster.spec
        self.rank_nodes = rank_nodes
        #: Node index of each rank: the interconnect's link-table key.
        self._node_of = [node.index for node in rank_nodes]
        self.mailboxes: List[Mailbox] = [Mailbox(env, r) for r in range(len(rank_nodes))]
        #: Per-flow last-arrival clamp: (src, dst, context) -> time.
        self._last_arrival: Dict[Tuple[int, int, str], float] = {}
        #: Diagnostics.
        self.eager_sends = 0
        self.rendezvous_sends = 0
        self._tap = _tap_get()

    # -- send paths --------------------------------------------------------------

    def send_eager(self, src: int, dst: int, tag: int, context: str, payload: object, size: int) -> None:
        """Fire-and-forget small-message send; the sender does not block."""
        self.eager_sends += 1
        self._launch(Envelope(src, dst, tag, context, payload, size, self.env.now), size)

    def send_rendezvous(self, src: int, dst: int, tag: int, context: str, payload: object, size: int) -> Event:
        """Large-message send: returns the handshake event.

        The envelope itself is the ready-to-send token: it is matched
        like any message, but its payload only "transfers" once the
        receive is posted.  The returned event triggers (with the match
        time) when the receiver has matched; the *caller* then charges
        the payload transfer time to complete the send.
        """
        self.rendezvous_sends += 1
        handshake = Event(self.env)
        envelope = Envelope(
            src, dst, tag, context, payload, size, self.env.now,
            rendezvous=True, handshake=handshake,
        )
        # The RTS control message is small.
        self._launch(envelope, 64)
        return handshake

    def _launch(self, envelope: Envelope, wire_bytes: int) -> None:
        """Put ``wire_bytes`` of ``envelope`` on the wire.

        The arrival is clamped to be non-decreasing per (src, dst,
        context) flow, and always goes through the event queue, even at
        zero wire time: a synchronous deliver() here would let this
        envelope match ahead of same-timestamp events that are already
        queued, breaking the FIFO order the queue guarantees.
        """
        src = envelope.src
        dst = envelope.dst
        now = envelope.sent_at
        at = now + self.interconnect.link_time(self._node_of[src], self._node_of[dst], wire_bytes)
        key = (src, dst, envelope.context)
        prev = self._last_arrival.get(key, 0.0)
        clamped = at < prev
        if clamped:
            at = prev
        self._last_arrival[key] = at
        delay = at - now
        if self._tap.enabled:
            self._tap.mpi_send(envelope, wire_bytes, delay, clamped)
        Timeout(self.env, delay, envelope).callbacks.append(self.mailboxes[dst].arrive)

    def payload_transfer_time(self, src: int, dst: int, size: int) -> float:
        """Bulk-transfer time of a rendezvous payload."""
        return self.interconnect.link_time(self._node_of[src], self._node_of[dst], size)
