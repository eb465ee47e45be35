"""Point-to-point semantics: send/recv, wildcards, ordering, protocols."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, Status

from .conftest import run_mpi


def mpi_main(body):
    """Wrap a body(pctx, comm) with MPI_Init/Finalize."""

    def program(pctx):
        yield from pctx.call("MPI_Init")
        result = yield from body(pctx, pctx.mpi.comm)
        yield from pctx.call("MPI_Finalize")
        return result

    return program


def test_simple_send_recv():
    def body(pctx, comm):
        if comm.rank == 0:
            yield from comm.send({"x": 42}, dest=1, tag=7)
            return "sent"
        obj = yield from comm.recv(source=0, tag=7)
        return obj

    _job, results = run_mpi(2, mpi_main(body))
    assert results[0] == "sent"
    assert results[1] == {"x": 42}


def test_recv_wildcards_and_status():
    def body(pctx, comm):
        if comm.rank == 0:
            yield from comm.send(b"payload", dest=1, tag=13)
            return None
        status = Status(-1, -1, 0)
        obj = yield from comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=status)
        return (obj, status.source, status.tag, status.size)

    _job, results = run_mpi(2, mpi_main(body))
    obj, source, tag, size = results[1]
    assert obj == b"payload"
    assert source == 0 and tag == 13 and size == 7


def test_messages_not_overtaken_same_flow():
    """MPI non-overtaking: same (src, dst, tag) arrive in send order."""

    def body(pctx, comm):
        if comm.rank == 0:
            for i in range(10):
                yield from comm.send(i, dest=1, tag=0)
            return None
        got = []
        for _ in range(10):
            got.append((yield from comm.recv(source=0, tag=0)))
        return got

    _job, results = run_mpi(2, mpi_main(body), seed=11)
    assert results[1] == list(range(10))


def test_tag_selective_matching():
    def body(pctx, comm):
        if comm.rank == 0:
            yield from comm.send("a", dest=1, tag=1)
            yield from comm.send("b", dest=1, tag=2)
            return None
        second = yield from comm.recv(source=0, tag=2)
        first = yield from comm.recv(source=0, tag=1)
        return (first, second)

    _job, results = run_mpi(2, mpi_main(body))
    assert results[1] == ("a", "b")


def test_large_message_uses_rendezvous():
    data = np.arange(100_000, dtype=np.float64)  # 800 KB >> eager limit

    def body(pctx, comm):
        if comm.rank == 0:
            yield from comm.send(data, dest=1)
            return None
        got = yield from comm.recv(source=0)
        return float(got.sum())

    job, results = run_mpi(2, mpi_main(body))
    assert results[1] == pytest.approx(float(data.sum()))
    assert job.world.transport.rendezvous_sends >= 1


def test_small_message_uses_eager():
    def body(pctx, comm):
        if comm.rank == 0:
            yield from comm.send([1, 2, 3], dest=1)
        else:
            yield from comm.recv(source=0)

    job, _ = run_mpi(2, mpi_main(body))
    assert job.world.transport.rendezvous_sends == 0
    assert job.world.transport.eager_sends >= 1


def test_rendezvous_sender_blocks_until_recv_posted():
    data = np.zeros(200_000)

    def body(pctx, comm):
        if comm.rank == 0:
            t0 = pctx.now
            yield from comm.send(data, dest=1)
            return pctx.now - t0
        yield from pctx.compute(2.0)  # receiver is late
        yield from comm.recv(source=0)
        return None

    _job, results = run_mpi(2, mpi_main(body))
    # Sender waited ~2s for the handshake.
    assert results[0] >= 1.9


def test_eager_sender_does_not_block():
    def body(pctx, comm):
        if comm.rank == 0:
            t0 = pctx.now
            yield from comm.send(1, dest=1)
            elapsed = pctx.now - t0
            return elapsed
        yield from pctx.compute(2.0)  # receiver is late
        yield from comm.recv(source=0)
        return None

    _job, results = run_mpi(2, mpi_main(body))
    assert results[0] < 0.1


def test_isend_irecv_requests():
    def body(pctx, comm):
        if comm.rank == 0:
            req = comm.isend("hello", dest=1)
            yield from req.wait()
            return None
        req = comm.irecv(source=0)
        obj = yield from req.wait()
        done, value = req.test()
        assert done and value == "hello"
        return obj

    _job, results = run_mpi(2, mpi_main(body))
    assert results[1] == "hello"


def test_sendrecv_exchanges_without_deadlock():
    def body(pctx, comm):
        peer = 1 - comm.rank
        got = yield from comm.sendrecv(f"from{comm.rank}", dest=peer, source=peer)
        return got

    _job, results = run_mpi(2, mpi_main(body))
    assert results == ["from1", "from0"]


def test_iprobe_detects_pending_message():
    def body(pctx, comm):
        if comm.rank == 0:
            yield from comm.send(1, dest=1, tag=5)
            return None
        # Wait long enough for the eager message to land.
        yield from pctx.compute(1.0)
        seen = comm.iprobe(source=0, tag=5)
        yield from comm.recv(source=0, tag=5)
        return (seen, comm.iprobe(source=0, tag=5))

    _job, results = run_mpi(2, mpi_main(body))
    assert results[1] == (True, False)


def test_send_to_invalid_rank_raises():
    def body(pctx, comm):
        try:
            yield from comm.send(1, dest=99)
        except ValueError:
            return "rejected"

    _job, results = run_mpi(2, mpi_main(body))
    assert results[0] == "rejected"


def test_transfer_time_scales_with_message_size():
    def make_body(nbytes):
        def body(pctx, comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(nbytes // 8), dest=1)
                return None
            t0 = pctx.now
            yield from comm.recv(source=0)
            return pctx.now - t0

        return body

    _j1, r_small = run_mpi(2, mpi_main(make_body(1_000)))
    _j2, r_large = run_mpi(2, mpi_main(make_body(100_000_000)))
    assert r_large[1] > r_small[1] * 10


def test_wait_all_completes_in_order():
    from repro.mpi import wait_all

    def body(pctx, comm):
        if comm.rank == 0:
            reqs = [comm.isend(i * 11, dest=1, tag=i) for i in range(4)]
            yield from wait_all(reqs)
            return "sent"
        reqs = [comm.irecv(source=0, tag=i) for i in range(4)]
        values = yield from wait_all(reqs)
        return values

    _job, results = run_mpi(2, mpi_main(body))
    assert results[1] == [0, 11, 22, 33]


def test_zero_wire_time_delivery_goes_through_event_queue():
    """Regression: the transport used to call ``deliver()``
    synchronously when the wire time was zero, letting the envelope jump
    ahead of same-timestamp events already on the queue."""
    from repro.cluster import Cluster, POWER3_SP
    from repro.mpi.messages import P2P
    from repro.mpi.transport import Transport
    from repro.simt import Environment

    env = Environment()
    cluster = Cluster(
        env, POWER3_SP.with_overrides(net_jitter=0.0, os_noise=0.0, shm_latency=0.0)
    )
    node = cluster.node(0)
    transport = Transport(env, cluster, [node, node])

    order = []
    before = env.timeout(0.0)
    before.callbacks.append(lambda _ev: order.append("before"))

    mailbox = transport.mailboxes[1]
    real_deliver = mailbox.deliver

    def recording_deliver(envelope):
        order.append("deliver")
        real_deliver(envelope)

    mailbox.deliver = recording_deliver
    transport.send_eager(0, 1, 0, P2P, b"x", 0)  # zero wire time

    after = env.timeout(0.0)
    after.callbacks.append(lambda _ev: order.append("after"))

    # Nothing may happen synchronously at schedule time...
    assert order == [] and mailbox.unexpected_count == 0
    env.run()
    # ...and at run time the delivery respects queue (FIFO) order.
    assert order == ["before", "deliver", "after"]
    assert mailbox.unexpected_count == 1
