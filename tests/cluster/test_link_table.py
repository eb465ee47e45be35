"""The interconnect's per-link table reproduces the transfer-time model.

``Interconnect.link_time`` caches each node pair's latency, bandwidth
and jitter stream, whose draws it fetches in batches; it must give
bit-identical times, drawing from the same ``link.{src}.{dst}`` streams
in the same order, as evaluating ``MachineSpec.message_time`` times a
one-at-a-time jitter draw afresh.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, POWER3_SP
from repro.simt import Environment, RandomStreams

messages = st.lists(
    st.tuples(
        st.integers(0, 3),            # source node
        st.integers(0, 3),            # destination node
        st.integers(0, 10**7),        # bytes
        st.booleans(),                # through transfer_time (Node API)?
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    jitter=st.sampled_from([0.0, 0.05, 0.3]),
    msgs=messages,
)
def test_link_time_matches_transfer_time_arithmetic(seed, jitter, msgs):
    spec = POWER3_SP.with_overrides(net_jitter=jitter)
    cluster = Cluster(Environment(), spec, seed=seed)
    net = cluster.interconnect
    reference = RandomStreams(seed).child(spec.name).child("net")
    for src, dst, nbytes, via_nodes in msgs:
        expected = spec.message_time(nbytes, intra_node=src == dst)
        if jitter > 0.0 and src != dst:
            expected *= 1.0 + reference.get(f"link.{src}.{dst}").exponential(jitter)
        if via_nodes:
            got = net.transfer_time(cluster.node(src), cluster.node(dst), nbytes)
        else:
            got = net.link_time(src, dst, nbytes)
        assert got == expected


def test_link_draws_continue_across_batches():
    """Hundreds of messages on two links: every batch boundary of the
    buffered draws must continue the one-at-a-time sequence."""
    spec = POWER3_SP.with_overrides(net_jitter=0.08)
    net = Cluster(Environment(), spec, seed=3).interconnect
    reference = RandomStreams(3).child(spec.name).child("net")
    for i in range(300):
        for src, dst in ((0, 1), (1, 0)):
            expected = spec.message_time(i, intra_node=False)
            expected *= 1.0 + reference.get(f"link.{src}.{dst}").exponential(0.08)
            assert net.link_time(src, dst, i) == expected
