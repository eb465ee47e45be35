"""Deterministic, named random-number streams.

Every stochastic element of the simulation (network latency jitter, DPCL
daemon skew, OS noise) draws from a *named* stream derived from a single
root seed, so that

* the same seed reproduces the same run bit-for-bit, and
* adding a new consumer of randomness does not perturb existing streams
  (streams are independent, keyed by name, not by draw order).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:
    import numpy as np

__all__ = ["RandomStreams"]


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from (root seed, stream name)."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStreams:
    """A factory of independent, reproducible numpy Generators.

    >>> streams = RandomStreams(seed=42)
    >>> a = streams.get("net.node3")
    >>> b = streams.get("net.node4")
    >>> a is streams.get("net.node3")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream called ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np

            gen = np.random.default_rng(_derive_seed(self.seed, name))
            self._streams[name] = gen
        return gen

    def uniform(self, name: str, low: float, high: float) -> float:
        """One draw from U[low, high) on stream ``name``."""
        return float(self.get(name).uniform(low, high))

    def exponential(self, name: str, mean: float) -> float:
        """One draw from Exp(mean) on stream ``name``."""
        return float(self.get(name).exponential(mean))

    def child(self, prefix: str) -> "RandomStreams":
        """A namespaced view that prefixes every stream name.

        Children share the parent's root seed, so ``parent.get("a.b")`` and
        ``parent.child("a").get("b")`` are the *same* stream.
        """
        return _PrefixedStreams(self, prefix)


class _PrefixedStreams(RandomStreams):
    """Internal: RandomStreams view with a fixed name prefix."""

    def __init__(self, parent: RandomStreams, prefix: str) -> None:
        self.seed = parent.seed
        self._parent = parent
        self._prefix = prefix

    @property
    def _streams(self) -> Dict[str, np.random.Generator]:  # type: ignore[override]
        return self._parent._streams

    def get(self, name: str) -> np.random.Generator:
        return self._parent.get(f"{self._prefix}.{name}")

    def child(self, prefix: str) -> "RandomStreams":
        return _PrefixedStreams(self._parent, f"{self._prefix}.{prefix}")
