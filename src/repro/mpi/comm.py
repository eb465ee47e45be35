"""The communicator: point-to-point and collective operations.

The API shape follows mpi4py's lowercase (pickle-based) methods —
``send``/``recv``/``bcast``/``reduce``/… — except that every operation is
a *generator* (``yield from comm.send(...)``) because the simulation is
cooperative.  ``Get_rank``/``Get_size`` aliases are provided for
familiarity.

Collectives are implemented on top of the simulated point-to-point layer
with the classic algorithms (dissemination barrier, binomial-tree
bcast/reduce/gather), so their latency scales O(log P) with real message
traffic — this is what gives VT_confsync its Figure 8 scaling.  User
and collective messages share one send/receive core; internal
collective traffic uses a separate match context and is not logged by
the VT wrapper (only the collective itself is, as with real PMPI).
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterator, List, Optional

from ..simt import Timeout
from .messages import ANY_SOURCE, ANY_TAG, COLL, P2P, Status
from .request import Request
from .util import payload_size

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import Task
    from ..program import ProgramContext
    from .runtime import MpiWorld

__all__ = ["Communicator"]


class Communicator:
    """One rank's view of MPI_COMM_WORLD.

    Only the world communicator is modelled — the paper's applications
    and experiments never split communicators.
    """

    def __init__(self, world: "MpiWorld", rank: int, task: "Task", pctx: "ProgramContext",
                 context: str = P2P) -> None:
        self.world = world
        self.rank = rank
        self.size = world.n_ranks
        #: Match context of this communicator's messages.
        self.context = context
        self._coll_seq = 0
        self._task = task
        self._pctx = pctx
        self._env = world.env
        self._transport = world.transport
        self._mailbox = world.transport.mailboxes[rank]
        self._overhead = world.spec.mpi_overhead
        self._eager_limit = world.spec.eager_limit
        #: Collective traffic goes through a shadow communicator: the same
        #: rank on the separate COLL match context.
        self._coll = self if context == COLL else Communicator(world, rank, task, pctx, COLL)

    # mpi4py-style accessors.
    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    # -- plumbing ------------------------------------------------------------

    def _check_peer(self, peer: int, what: str) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(f"{what} rank {peer} out of range [0, {self.size})")

    def _log_send(self, dest: int, tag: int, nbytes: int) -> None:
        wrapper = self.world.wrappers[self.rank]
        if wrapper is not None:
            wrapper.on_send(self._pctx, dest, tag, nbytes)

    def _log_recv(self, envelope) -> None:
        wrapper = self.world.wrappers[self.rank]
        if wrapper is not None:
            wrapper.on_recv(self._pctx, envelope.src, envelope.tag, envelope.size)

    # -- the send/receive core ---------------------------------------------------
    #
    # Shared by user point-to-point calls and collective traffic.  Callers
    # validate peers and sizes, charge the send overhead and do any VT
    # logging; the core only moves the message.  flush() and
    # blocked_wait() end with a checkpoint, so another is needed only
    # after a rendezvous transfer has yielded.

    def _send(self, obj: Any, dest: int, tag: int, nbytes: int) -> Generator:
        """Flush, put the message on the wire, checkpoint."""
        task = self._task
        if not task.settled:
            yield from task.flush()
        if nbytes <= self._eager_limit:
            self._transport.send_eager(self.rank, dest, tag, self.context, obj, nbytes)
            return
        handshake = self._transport.send_rendezvous(self.rank, dest, tag, self.context, obj, nbytes)
        transfer = yield from task.blocked_wait(handshake)
        yield Timeout(self._env, transfer)
        if not task.settled:
            yield from task.checkpoint()

    def _recv(self, source: int, tag: int) -> Generator:
        """Post, blocked wait, rendezvous transfer, checkpoint, charge;
        returns the matched envelope."""
        task = self._task
        if not task.settled:
            yield from task.flush()
        envelope = yield from task.blocked_wait(self._mailbox.post_recv(source, tag, self.context))
        if envelope.rendezvous:
            yield from self._pull(envelope)
            if not task.settled:
                yield from task.checkpoint()
        task.charge(self._overhead)
        return envelope

    def _pull(self, envelope) -> Generator:
        """Rendezvous: release the matched sender and move the payload."""
        transfer = self._transport.payload_transfer_time(envelope.src, self.rank, envelope.size)
        envelope.handshake.succeed(transfer)
        yield Timeout(self._env, transfer)

    # -- point-to-point ---------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0, size: Optional[int] = None) -> Generator:
        """Blocking standard-mode send."""
        self._check_peer(dest, "destination")
        nbytes = _nbytes(obj, size)
        self._task.charge(self._overhead)
        self._log_send(dest, tag, nbytes)
        yield from self._send(obj, dest, tag, nbytes)

    def isend(self, obj: Any, dest: int, tag: int = 0, size: Optional[int] = None) -> Request:
        """Nonblocking send; completion via the returned Request."""
        self._check_peer(dest, "destination")
        nbytes = _nbytes(obj, size)
        self._task.charge(self._overhead)
        self._log_send(dest, tag, nbytes)
        transport = self._transport
        if nbytes <= self._eager_limit:
            # Eager sends buffer immediately: already complete.
            done = self._env.event()
            done.succeed(None)
            transport.send_eager(self.rank, dest, tag, self.context, obj, nbytes)
            return Request(self, done, "isend")
        handshake = transport.send_rendezvous(self.rank, dest, tag, self.context, obj, nbytes)

        def finish(transfer: float) -> Generator:
            yield Timeout(self._env, transfer)

        return Request(self, handshake, "isend", finisher=finish)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Generator:
        """Blocking receive; returns the payload object."""
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
        envelope = yield from self._recv(source, tag)
        self._log_recv(envelope)
        if status is not None:
            status.source = envelope.src
            status.tag = envelope.tag
            status.size = envelope.size
        return envelope.payload

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive."""
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
        event = self._mailbox.post_recv(source, tag, self.context)

        def finish(envelope) -> Generator:
            if envelope.rendezvous:
                yield from self._pull(envelope)
            self._task.charge(self._overhead)
            self._log_recv(envelope)
            return envelope.payload

        return Request(self, event, "irecv", finisher=finish)

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
    ) -> Generator:
        """Combined send+receive (deadlock-free exchange)."""
        req = self.isend(sendobj, dest, sendtag)
        result = yield from self.recv(source, recvtag)
        yield from req.wait()
        return result

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True if a matching message is waiting (MPI_Iprobe)."""
        return self._mailbox.probe(source, tag, self.context) is not None

    # -- collective internals -----------------------------------------------------
    #
    # Internal messages use the core through ``_coll``, tagged
    # ``_coll_seq * 64 + round``.  Their peers are computed mod P and
    # roots are checked once per call, so they skip the per-message
    # peer check, the VT wrapper and (given ``size``) payload sizing.

    def _coll_begin(self) -> float:
        self._coll_seq += 1
        return self._task.now

    def _coll_end(self, op: str, t_start: float) -> None:
        wrapper = self.world.wrappers[self.rank]
        if wrapper is not None:
            wrapper.on_collective(self._pctx, op, self.size, t_start)

    # -- collectives ------------------------------------------------------------------

    def barrier(self) -> Generator:
        """Dissemination barrier: ceil(log2 P) rounds of shifted exchange."""
        return self._dissemination("MPI_Barrier")

    def _dissemination(self, op: Optional[str] = None) -> Generator:
        """The barrier algorithm; ``op`` names the collective VT logs
        (None for the implicit syncs of MPI_Init and MPI_Finalize)."""
        if op is not None:
            t0 = self._coll_begin()
        P = self.size
        task = self._task
        if P > 1:
            coll = self._coll
            rank = self.rank
            base = self._coll_seq * 64
            for k in range((P - 1).bit_length()):  # ceil(log2 P) rounds
                dist = 1 << k
                task.charge(self._overhead)
                yield from coll._send(0, (rank + dist) % P, base + k, 4)
                yield from coll._recv((rank - dist) % P, base + k)
        if not task.settled:
            yield from task.checkpoint()
        if op is not None:
            self._coll_end(op, t0)

    def bcast(self, obj: Any, root: int = 0, size: Optional[int] = None) -> Generator:
        """Binomial-tree broadcast; returns the root's object on all ranks."""
        self._check_peer(root, "root")
        if size is not None:
            size = _nbytes(obj, size)
        t0 = self._coll_begin()
        P = self.size
        coll = self._coll
        tag = self._coll_seq * 64
        vrank = (self.rank - root) % P
        if vrank != 0:
            parent = _clear_highest_bit(vrank)
            obj = (yield from coll._recv((parent + root) % P, tag)).payload
        for child in _children(vrank, P):
            nbytes = payload_size(obj) if size is None else size
            self._task.charge(self._overhead)
            yield from coll._send(obj, (child + root) % P, tag, nbytes)
        self._coll_end("MPI_Bcast", t0)
        return obj

    def reduce(
        self,
        obj: Any,
        op: Callable[[Any, Any], Any] = operator.add,
        root: int = 0,
    ) -> Generator:
        """Binomial-tree reduction; root returns the combined value."""
        self._check_peer(root, "root")
        t0 = self._coll_begin()
        P = self.size
        coll = self._coll
        tag = self._coll_seq * 64
        vrank = (self.rank - root) % P
        partial = obj
        for child in _children(vrank, P):
            contribution = (yield from coll._recv((child + root) % P, tag)).payload
            partial = op(partial, contribution)
        if vrank != 0:
            parent = _clear_highest_bit(vrank)
            self._task.charge(self._overhead)
            yield from coll._send(partial, (parent + root) % P, tag, payload_size(partial))
            self._coll_end("MPI_Reduce", t0)
            return None
        self._coll_end("MPI_Reduce", t0)
        return partial

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = operator.add) -> Generator:
        """Reduce-to-0 followed by broadcast (2 log P stages)."""
        t0 = self._coll_begin()
        partial = yield from self.reduce(obj, op, root=0)
        result = yield from self.bcast(partial, root=0)
        self._coll_end("MPI_Allreduce", t0)
        return result

    def gather(self, obj: Any, root: int = 0, size: Optional[int] = None) -> Generator:
        """Binomial gather; root returns [value_0, ..., value_{P-1}]."""
        self._check_peer(root, "root")
        if size is not None:
            size = _nbytes(obj, size)
        t0 = self._coll_begin()
        P = self.size
        coll = self._coll
        tag = self._coll_seq * 64
        vrank = (self.rank - root) % P
        collected = {self.rank: obj}
        for child in _children(vrank, P):
            collected.update((yield from coll._recv((child + root) % P, tag)).payload)
        if vrank != 0:
            parent = _clear_highest_bit(vrank)
            nbytes = payload_size(collected) if size is None else size
            self._task.charge(self._overhead)
            yield from coll._send(collected, (parent + root) % P, tag, nbytes)
            self._coll_end("MPI_Gather", t0)
            return None
        self._coll_end("MPI_Gather", t0)
        return [collected[r] for r in range(P)]

    def allgather(self, obj: Any) -> Generator:
        """Gather to 0 + broadcast of the assembled list."""
        t0 = self._coll_begin()
        gathered = yield from self.gather(obj, root=0)
        result = yield from self.bcast(gathered, root=0)
        self._coll_end("MPI_Allgather", t0)
        return result

    def scatter(self, objs: Optional[List[Any]], root: int = 0) -> Generator:
        """Flat-tree scatter; each rank returns its element of root's list."""
        self._check_peer(root, "root")
        t0 = self._coll_begin()
        coll = self._coll
        tag = self._coll_seq * 64
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError(
                    f"scatter root needs a list of exactly {self.size} items"
                )
            mine = objs[root]
            for dest in range(self.size):
                if dest != root:
                    self._task.charge(self._overhead)
                    yield from coll._send(objs[dest], dest, tag, payload_size(objs[dest]))
        else:
            mine = (yield from coll._recv(root, tag)).payload
        self._coll_end("MPI_Scatter", t0)
        return mine

    def alltoall(self, objs: List[Any]) -> Generator:
        """Pairwise-exchange all-to-all; returns the received list."""
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs a list of exactly {self.size} items")
        t0 = self._coll_begin()
        P = self.size
        coll = self._coll
        base = self._coll_seq * 64
        result: List[Any] = [None] * P
        result[self.rank] = objs[self.rank]
        for k in range(1, P):
            dest = (self.rank + k) % P
            src = (self.rank - k) % P
            # Ordered exchange avoids rendezvous deadlock on large payloads.
            if self.rank < dest:
                self._task.charge(self._overhead)
                yield from coll._send(objs[dest], dest, base + k, payload_size(objs[dest]))
                result[src] = (yield from coll._recv(src, base + k)).payload
            else:
                result[src] = (yield from coll._recv(src, base + k)).payload
                self._task.charge(self._overhead)
                yield from coll._send(objs[dest], dest, base + k, payload_size(objs[dest]))
        self._coll_end("MPI_Alltoall", t0)
        return result

    def __repr__(self) -> str:
        return f"<Communicator rank={self.rank}/{self.size}>"


def _nbytes(obj: Any, size: Optional[int]) -> int:
    """Wire size of a message: ``size`` when given, else estimated.

    Rejects a negative size before the caller charges, logs or counts."""
    nbytes = payload_size(obj) if size is None else int(size)
    if nbytes < 0:
        raise ValueError(f"negative message size {nbytes}")
    return nbytes


def _children(vrank: int, P: int) -> Iterator[int]:
    """Children of ``vrank`` in a binomial tree rooted at 0, nearest first."""
    bit = 1 << vrank.bit_length()
    while vrank + bit < P:
        yield vrank + bit
        bit <<= 1


def _clear_highest_bit(v: int) -> int:
    """Parent of ``v`` (> 0) in a binomial tree rooted at 0."""
    return v - (1 << (v.bit_length() - 1))
