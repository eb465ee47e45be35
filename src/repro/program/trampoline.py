"""Base and mini trampolines — the runtime-code-patching model of Figure 1.

When a probe point is instrumented, the original instruction at the point
is (conceptually) displaced by a jump to a :class:`BaseTrampoline`, which
saves registers, runs a chain of :class:`MiniTrampoline` s (each holding
one inserted snippet), executes the relocated instruction, restores
registers and jumps back.  The simulation charges:

* ``tramp_base_cost`` once per firing (jump + save/restore + relocated
  instruction + jump back), as long as the base trampoline is installed —
  even if every mini in the chain is deactivated;
* ``tramp_mini_cost`` per *active* mini traversed;
* the snippet's own per-op cost as it executes.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Generator, List, Optional

from ..obs.tap import get as _tap_get
from .snippet import Snippet, _run

if TYPE_CHECKING:  # pragma: no cover
    from .executor import ProgramContext

__all__ = ["MiniTrampoline", "BaseTrampoline", "ProbeHandle"]

_handle_ids = count(1)


class MiniTrampoline:
    """One block of dynamically inserted instrumentation code."""

    __slots__ = ("snippet", "handle_id", "active")

    def __init__(self, snippet: Snippet) -> None:
        self.snippet = snippet
        self.handle_id = next(_handle_ids)
        #: Installed probes may be inactive (DPCL install vs. activate).
        self.active = False

    def __repr__(self) -> str:
        state = "active" if self.active else "installed"
        return f"<MiniTrampoline #{self.handle_id} {state}: {self.snippet.describe()}>"


class ProbeHandle:
    """Opaque handle returned by probe installation, used for removal."""

    __slots__ = ("image_name", "function", "where", "mini")

    def __init__(self, image_name: str, function: str, where: str, mini: MiniTrampoline) -> None:
        self.image_name = image_name
        self.function = function
        self.where = where
        self.mini = mini

    def __repr__(self) -> str:
        return f"<ProbeHandle {self.function}@{self.where} #{self.mini.handle_id}>"


class BaseTrampoline:
    """The per-probe-point trampoline holding a chain of minis."""

    __slots__ = ("minis", "_tap")

    def __init__(self) -> None:
        self.minis: List[MiniTrampoline] = []
        self._tap = _tap_get()

    @property
    def has_active(self) -> bool:
        return any(m.active for m in self.minis)

    def insert(self, snippet: Snippet, activate: bool = True) -> MiniTrampoline:
        """Append a mini-trampoline to the chain (paper: minis are chained,
        the last one jumps back to the base trampoline)."""
        mini = MiniTrampoline(snippet)
        mini.active = activate
        self.minis.append(mini)
        return mini

    def remove(self, mini: MiniTrampoline) -> bool:
        """Unlink a mini from the chain; True if it was present."""
        try:
            self.minis.remove(mini)
            return True
        except ValueError:
            return False

    def fire(self, pctx: "ProgramContext") -> Generator:
        """Execute the trampoline in ``pctx`` (the probe point was hit).

        Iterates a snapshot of the chain: a blocking snippet (e.g. the
        bootstrap spin) can suspend the target long enough for a daemon
        to insert or remove minis at this very probe point, and the
        in-flight firing must see a consistent chain.
        """
        spec = pctx.spec
        pctx.task.charge(spec.tramp_base_cost)
        overhead = spec.tramp_base_cost
        for mini in tuple(self.minis):
            if not mini.active:
                continue
            pctx.task.charge(spec.tramp_mini_cost)
            overhead += spec.tramp_mini_cost
            yield from _run(mini.snippet, pctx)
        if self._tap.enabled:
            # Trampoline mechanics only; the snippet's own work is
            # attributed by the VT probe path.
            self._tap.tramp_fired(overhead)

    def batch_cost(self, pctx: "ProgramContext") -> Optional[float]:
        """Per-firing cost if every active snippet is batchable, else None.

        Used by the leaf-call batching fast path: when all snippets in the
        chain support batched execution (VT probe snippets do), ``n``
        firings can be charged as ``n * batch_cost`` plus one batched
        side-effect per snippet.
        """
        total = pctx.spec.tramp_base_cost
        for mini in self.minis:
            if not mini.active:
                continue
            per_fire = getattr(mini.snippet, "batch_fire_cost", None)
            if per_fire is None:
                return None
            total += pctx.spec.tramp_mini_cost + per_fire(pctx)
        return total

    def batch_side_effects(self, pctx: "ProgramContext", n: int, t_start: float, period: float, phase: float) -> None:
        """Apply the batched side effects of ``n`` firings.

        ``t_start`` is the local time of the first firing, ``period`` the
        spacing between consecutive firings, ``phase`` the offset of this
        probe within one iteration (entry=0, exit=body end).
        """
        for mini in self.minis:
            if not mini.active:
                continue
            mini.snippet.batch_apply(pctx, n, t_start + phase, period)  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.minis)

    def __repr__(self) -> str:
        return f"<BaseTrampoline minis={len(self.minis)} active={sum(m.active for m in self.minis)}>"
