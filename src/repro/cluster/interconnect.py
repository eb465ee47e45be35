"""Interconnect model: point-to-point transfer times with jitter.

The model is a LogP-style analytic one: a transfer costs a fixed one-way
latency plus ``size / bandwidth``, with intra-node (shared memory) and
inter-node (switch) parameters, and multiplicative jitter drawn from a
deterministic per-link RNG stream.  Link contention is *not* modelled —
the paper's experiments are latency-bound synchronisation patterns and
probe-overhead measurements, neither of which saturates the Colony
switch; DESIGN.md records this simplification.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from ..simt import Channel, Environment, RandomStreams
from .machine import MachineSpec
from .node import Node

__all__ = ["Interconnect"]

#: One link-table entry: (latency, bandwidth, next jitter draw or None).
_Link = Tuple[float, float, Optional[Callable[[], float]]]

#: Jitter draws fetched per numpy call on one link stream.
_JITTER_BATCH = 64


def _exponential_draws(gen: np.random.Generator, mean: float) -> Iterator[float]:
    """Endless ``gen.exponential(mean)`` draws, fetched a batch at a time.

    numpy fills a batch with the same values, in the same order, as
    one-at-a-time calls, and a scalar call costs several times a
    batched draw.  Only this link's entry consumes the stream.
    """
    while True:
        yield from gen.exponential(mean, size=_JITTER_BATCH).tolist()


class Interconnect:
    """Computes and schedules message deliveries between nodes."""

    def __init__(
        self,
        env: Environment,
        spec: MachineSpec,
        rng: RandomStreams,
    ) -> None:
        self.env = env
        self.spec = spec
        self.rng = rng.child("net")
        #: Per-(src node, dst node) link constants, built on first use.
        self._links: Dict[Tuple[int, int], _Link] = {}
        #: Count of messages sent (diagnostics).
        self.messages_sent = 0
        #: Total payload bytes moved (diagnostics).
        self.bytes_sent = 0
        #: Optional :class:`repro.faults.FaultInjector`; consulted only
        #: for ``control=True`` deliveries (DPCL daemon traffic).
        self.faults = None
        #: Control messages dropped by fault injection (diagnostics).
        self.control_drops = 0

    def transfer_time(self, src: Node, dst: Node, nbytes: int) -> float:
        """Sampled one-way transfer time from ``src`` to ``dst``.

        Deterministic given the RNG seed and draw order on the
        (src, dst) link stream.
        """
        if nbytes < 0:
            raise ValueError("negative message size")
        return self.link_time(src.index, dst.index, nbytes)

    def link_time(self, src: int, dst: int, nbytes: int) -> float:
        """:meth:`transfer_time` between node indices, for a size the
        caller has already validated (the MPI transport's hot path)."""
        link = self._links.get((src, dst))
        if link is None:
            link = self._links[(src, dst)] = self._link(src, dst)
        latency, bandwidth, jitter = link
        if jitter is None:
            return latency + nbytes / bandwidth
        return (latency + nbytes / bandwidth) * (1.0 + jitter())

    def _link(self, src: int, dst: int) -> _Link:
        """One node pair's entry.  Inter-node links draw multiplicative
        jitter from their own ``link.{src}.{dst}`` stream; shared memory
        has none."""
        spec = self.spec
        if src == dst:
            return spec.shm_latency, spec.shm_bandwidth, None
        jitter = None
        if spec.net_jitter > 0.0:
            stream = self.rng.get(f"link.{src}.{dst}")
            jitter = _exponential_draws(stream, spec.net_jitter).__next__
        return spec.net_latency, spec.net_bandwidth, jitter

    def deliver(
        self,
        src: Node,
        dst: Node,
        nbytes: int,
        channel: Channel,
        item: object,
        extra_delay: float = 0.0,
        control: bool = False,
    ) -> float:
        """Schedule ``item`` to appear on ``channel`` after the wire time.

        Returns the delivery delay that was charged (useful for tracing).
        ``control`` marks out-of-band tool traffic (DPCL requests, acks,
        callbacks); an installed fault injector may drop or delay it.
        """
        delay = self.transfer_time(src, dst, nbytes) + extra_delay
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if control and self.faults is not None:
            drop, added = self.faults.on_control_message(
                src.index, dst.index, nbytes, self.env.now
            )
            if drop:
                # The message hit the wire but never arrives.
                self.control_drops += 1
                return delay
            delay += added
        self.send_after(delay, channel, item)
        return delay

    def send_after(self, delay: float, channel: Channel, item: object) -> None:
        """Put ``item`` on ``channel`` after ``delay`` seconds."""
        if delay <= 0.0:
            channel.put(item)
            return
        timeout = self.env.timeout(delay)
        timeout.callbacks.append(lambda _ev: channel.put(item))
