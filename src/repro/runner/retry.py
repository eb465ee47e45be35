"""Retry policy for sweep points whose worker process dies.

A worker-process death (``BrokenProcessPool``: the simulated analog of
an OOM-kill or segfault) is the one failure mode :mod:`repro.runner`
retries — an *exception* inside a point is deterministic and would
fail identically on every attempt.  :class:`RetryPolicy` replaces the
historical hard-wired retry-once with a configurable budget plus
exponential backoff and deterministic jitter.

Determinism: the jitter for a given (point key, attempt) pair is a
pure hash — two runs of the same grid back off by identical amounts,
keeping sweep wall-times (and telemetry) reproducible.
"""

from __future__ import annotations

import hashlib

from .._record import FrozenRecord

__all__ = ["RetryPolicy"]


class RetryPolicy(FrozenRecord):
    """How often, and after what delay, a crashed point is re-submitted.

    Parameters
    ----------
    max_attempts:
        Total tries per point, first run included (``1`` = never
        retry).  The default ``2`` preserves the runner's historical
        retry-once behaviour.
    backoff:
        Real-seconds delay before the second attempt (``0`` retries
        immediately, as before).
    multiplier:
        Growth factor applied to ``backoff`` for each further attempt.
    jitter:
        Upper bound on an extra delay drawn deterministically from the
        point's cache key, de-synchronizing a wave of crashed points
        without sacrificing reproducibility.
    """

    _fields = ("max_attempts", "backoff", "multiplier", "jitter")

    def __init__(
        self,
        max_attempts: int = 2,
        backoff: float = 0.0,
        multiplier: float = 2.0,
        jitter: float = 0.0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 (1 = never retry)")
        if backoff < 0.0 or jitter < 0.0:
            raise ValueError("backoff and jitter must be >= 0")
        if multiplier <= 0.0:
            raise ValueError("multiplier must be > 0")
        self.__dict__.update(max_attempts=max_attempts, backoff=backoff,
                             multiplier=multiplier, jitter=jitter)

    def should_retry(self, attempts: int) -> bool:
        """True if a point that has run ``attempts`` times may run again."""
        return attempts < self.max_attempts

    def delay(self, attempts: int, key: str = "") -> float:
        """Seconds to wait before attempt ``attempts + 1``.

        ``attempts`` is how many times the point has already run.  The
        jitter component hashes ``(key, attempts)`` so it is stable
        across runs and distinct across points.
        """
        if self.backoff <= 0.0 and self.jitter <= 0.0:
            return 0.0
        total = self.backoff * self.multiplier ** max(0, attempts - 1)
        if self.jitter > 0.0:
            blob = f"{key}:{attempts}".encode("utf-8")
            digest = hashlib.sha256(blob).digest()
            frac = int.from_bytes(digest[:8], "big") / 2.0 ** 64
            total += self.jitter * frac
        return total
