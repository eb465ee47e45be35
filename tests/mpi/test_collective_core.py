"""The send/receive core shared by point-to-point calls and collectives:
size validation at the communicator boundary, rendezvous-sized
collectives, and DPCL-style suspension of a rank blocked inside a
collective receive."""

import numpy as np
import pytest

from repro import obs
from repro.cluster import Cluster, POWER3_SP
from repro.jobs import MpiJob
from repro.program import ExecutableImage
from repro.simt import Environment

from .conftest import run_mpi
from .test_pt2pt import mpi_main

SPEC = POWER3_SP.with_overrides(net_jitter=0.0, os_noise=0.0)
RENDEZVOUS_BYTES = SPEC.eager_limit + 1


# -- negative explicit sizes ----------------------------------------------------


@pytest.mark.parametrize("call", ["send", "isend", "bcast", "gather"])
def test_negative_explicit_size_rejected_before_any_side_effect(call):
    """No overhead charge, VT record, transport count or metric may
    precede the rejection of ``size=-1``."""
    caller = 1 if call == "gather" else 0  # gather: a non-root sends
    outcome = {}

    def body(pctx, comm):
        if comm.rank != caller:
            return None
        task, transport = pctx.task, comm.world.transport

        def state():
            return (task.pending, task.compute_time, transport.eager_sends,
                    transport.rendezvous_sends, dict(registry.counters))

        before = state()
        with pytest.raises(ValueError, match="negative message size"):
            if call == "send":
                yield from comm.send(1, dest=1, size=-1)
            elif call == "isend":
                comm.isend(1, dest=1, size=-1)
            elif call == "bcast":
                yield from comm.bcast(1, root=0, size=-1)
            else:
                yield from comm.gather(1, root=0, size=-1)
        outcome["after"], outcome["before"] = state(), before
        return None

    with obs.collecting() as registry:
        run_mpi(2, mpi_main(body))
    assert outcome["after"] == outcome["before"]


# -- collectives above the eager limit ----------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("explicit_size", [False, True])
def test_rendezvous_bcast_and_gather(n, explicit_size):
    """Payloads above ``eager_limit`` go through the rendezvous protocol
    and still deliver the right values; each non-root rank's bcast
    receive and gather send is exactly one rendezvous message."""
    big = np.arange(RENDEZVOUS_BYTES // 8 + 1, dtype=float)
    size = RENDEZVOUS_BYTES if explicit_size else None
    root = n - 1

    def body(pctx, comm):
        value = big if comm.rank == 0 else None
        got = yield from comm.bcast(value, root=0, size=size)
        parts = yield from comm.gather(big + comm.rank, root=root, size=size)
        return got, parts

    with obs.collecting() as registry:
        job, results = run_mpi(n, mpi_main(body))
    for got, _parts in results:
        np.testing.assert_array_equal(got, big)
    assert all(parts is None for _got, parts in results[:root])
    gathered = results[root][1]
    assert len(gathered) == n
    for rank, part in enumerate(gathered):
        np.testing.assert_array_equal(part, big + rank)
    assert registry.counters.get("mpi.rendezvous_sends") == 2 * (n - 1)
    assert job.world.transport.rendezvous_sends == 2 * (n - 1)


# -- suspension while blocked in a collective ------------------------------------------


def _run_suspending(collective, suspend):
    """Four ranks; rank 0 computes for 1 s before the collective, so
    rank 1 blocks in its collective receive.  With ``suspend``, a
    controller suspends rank 1 at t=0.5 and resumes it at t=2.5."""

    def body(pctx, comm):
        if comm.rank == 0:
            yield from pctx.compute(1.0)
        if collective == "barrier":
            yield from comm.barrier()
            value = comm.rank
        else:
            value = yield from comm.bcast("cfg" if comm.rank == 0 else None, root=0)
        return value, pctx.now

    env = Environment()
    job = MpiJob(env, Cluster(env, SPEC, seed=0), ExecutableImage("testapp"), 4,
                 mpi_main(body))
    job.start()
    seen = {}

    def controller(env):
        yield env.timeout(0.5)
        task = job.world.rank_contexts[1].task
        task.request_suspend()
        # Blocked inside the runtime: stopped at once, no park needed.
        seen["stopped"] = task.is_stopped
        seen["when_stopped"] = task.when_stopped().triggered
        seen["parked_early"] = task.is_parked
        yield env.timeout(2.0)
        # The message arrived at ~1 s; the rank parked on its way out.
        seen["parked_late"] = task.is_parked
        task.resume()
        seen["task"] = task

    if suspend:
        env.process(controller(env))
    env.run(until=job.completion())
    return [p.value for p in job.procs], seen


@pytest.mark.parametrize("collective", ["barrier", "bcast"])
def test_rank_blocked_in_collective_counts_as_stopped(collective):
    plain, _ = _run_suspending(collective, suspend=False)
    results, seen = _run_suspending(collective, suspend=True)
    assert seen["stopped"] and seen["when_stopped"]
    assert not seen["parked_early"] and seen["parked_late"]
    # Same values on every rank; rank 1 ran no code before the resume.
    assert [v for v, _t in results] == [v for v, _t in plain]
    assert results[1][1] >= 2.5 > plain[1][1]
    (start, end), = seen["task"].suspensions
    assert 1.0 <= start < 2.5 and end == pytest.approx(2.5)
