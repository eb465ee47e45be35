"""Shared machinery for the ASCI kernel application analogs.

Each application (Table 2) is described by an :class:`AppSpec`: its
function inventory (the paper gives exact counts: Smg98 199, Sppm 22,
Sweep3d 21, Umt98 44), the "important subset" used by the Subset and
Dynamic policies (62 / 7 / all 21 / 6), its scaling mode, and factories
for the executable image and the per-rank program.

The key structural fact the reproduction preserves: the *subset*
functions are few, called rarely, and hold most of the execution time
(solver routines), while the *non-subset* inventory contains the tiny
utility functions called at enormous rates.  That split is why Subset ≈
Full-Off (the residual per-call lookup on the noisy functions dominates)
while Dynamic ≈ None (uninstrumented functions cost literally nothing).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Callable, Generator, List, Sequence, Tuple

from .._record import FrozenRecord
from ..dynprof.policyspec import POLICIES

if TYPE_CHECKING:  # the program model loads with the first simulation
    from ..program import ExecutableImage, ProgramContext

__all__ = [
    "AppSpec",
    "NoiseProfile",
    "grid_dims",
    "neighbors_2d",
    "MPI_SCALING_CPUS",
    "OMP_SCALING_CPUS",
]

#: The processor counts of Figure 7 for the MPI applications.
MPI_SCALING_CPUS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
#: And for the OpenMP application (single 8-way SMP node).
OMP_SCALING_CPUS: Tuple[int, ...] = (1, 2, 4, 8)


class AppSpec(FrozenRecord):
    """Static description + factories for one ASCI kernel analog.

    ``lang`` is Table 2's language ("MPI/C", "MPI/F77", "OMP/F77"),
    ``kind`` is "mpi" or "omp", ``functions`` the full inventory,
    ``subset`` the "important subset" and ``scaling`` "weak" or
    "strong".  ``build_exe(instrument_static)`` returns a fresh
    ExecutableImage; ``make_program(n_cpus, scale)`` returns the
    program(pctx) generator yielding the rank's main-computation
    elapsed seconds.  ``has_subset_policy`` is False for Sweep3d, whose
    Subset line the paper omitted ("unnecessary").
    """

    _fields = ("name", "title", "lang", "kind", "description", "functions",
               "subset", "dynamic_targets", "scaling", "cpu_counts",
               "build_exe", "make_program", "has_subset_policy")

    def __init__(
        self,
        name: str,
        title: str,
        lang: str,
        kind: str,
        description: str,
        functions: Tuple[str, ...],
        subset: Tuple[str, ...],
        dynamic_targets: Tuple[str, ...],
        scaling: str,
        cpu_counts: Tuple[int, ...],
        build_exe: Callable[[bool], ExecutableImage],
        make_program: Callable[[int, float],
                               Callable[[ProgramContext], Generator]],
        has_subset_policy: bool = True,
    ) -> None:
        self.__dict__.update(
            name=name, title=title, lang=lang, kind=kind,
            description=description, functions=functions, subset=subset,
            dynamic_targets=dynamic_targets, scaling=scaling,
            cpu_counts=cpu_counts, build_exe=build_exe,
            make_program=make_program, has_subset_policy=has_subset_policy,
        )

    @property
    def n_functions(self) -> int:
        return len(self.functions)

    @property
    def policies(self) -> Tuple[str, ...]:
        """The Table 3 policies the paper runs this app under: all of
        them, but Subset only where it has a Subset version."""
        return tuple(p for p in POLICIES if p != "Subset" or self.has_subset_policy)

    def clamp_cpus(self, n: int) -> int:
        """The largest of this app's CPU counts that is at most ``n``."""
        return max(c for c in self.cpu_counts if c <= n)

    def validate(self) -> None:
        fset = set(self.functions)
        if len(fset) != len(self.functions):
            raise ValueError(f"{self.name}: duplicate function names")
        missing = [s for s in self.subset if s not in fset]
        if missing:
            raise ValueError(f"{self.name}: subset not in inventory: {missing}")
        missing = [s for s in self.dynamic_targets if s not in fset]
        if missing:
            raise ValueError(f"{self.name}: dynamic targets not in inventory: {missing}")


def _stable_unit(name: str) -> float:
    """Deterministic pseudo-random in [0, 1) derived from a name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") / 2**64


class NoiseProfile:
    """High-frequency utility-call workload over the non-subset inventory.

    Distributes a per-phase call budget across the noisy functions with a
    hot/cold split (a handful of box-loop-style helpers take most calls,
    the long tail shares the rest) and per-function costs spread around a
    mean.  Costs and the split are deterministic functions of the names.
    """

    def __init__(
        self,
        functions: Sequence[str],
        hot_count: int = 10,
        hot_share: float = 0.8,
        mean_cost: float = 1.2e-6,
    ) -> None:
        if not functions:
            raise ValueError("noise profile needs at least one function")
        hot_count = min(hot_count, len(functions))
        if not 0.0 <= hot_share <= 1.0:
            raise ValueError("hot_share must be within [0, 1]")
        self.functions = list(functions)
        self.hot = self.functions[:hot_count]
        self.cold = self.functions[hot_count:]
        self.hot_share = hot_share if self.cold else 1.0
        #: Per-function body cost: mean_cost * [0.4x .. 1.9x].
        self.costs = {
            name: mean_cost * (0.4 + 1.5 * _stable_unit(name))
            for name in self.functions
        }

    def mean_call_cost(self) -> float:
        """Average body cost over one call-budget unit."""
        hot_n = len(self.hot)
        per_hot = self.hot_share / hot_n
        total = sum(self.costs[f] * per_hot for f in self.hot)
        if self.cold:
            per_cold = (1.0 - self.hot_share) / len(self.cold)
            total += sum(self.costs[f] * per_cold for f in self.cold)
        return total

    def hot_batches(self, calls: int) -> List[Tuple[str, int, float]]:
        """(function, n, cost) batches covering the hot share of ``calls``."""
        hot_calls = int(calls * self.hot_share)
        per_fn, extra = divmod(hot_calls, len(self.hot))
        out = []
        for i, fn in enumerate(self.hot):
            n = per_fn + (1 if i < extra else 0)
            if n > 0:
                out.append((fn, n, self.costs[fn]))
        return out

    def cold_batches(self, calls: int) -> List[Tuple[str, int, float]]:
        """(function, n, cost) batches covering the cold share of ``calls``."""
        if not self.cold:
            return []
        cold_calls = calls - int(calls * self.hot_share)
        per_fn, extra = divmod(cold_calls, len(self.cold))
        out = []
        for i, fn in enumerate(self.cold):
            n = per_fn + (1 if i < extra else 0)
            if n > 0:
                out.append((fn, n, self.costs[fn]))
        return out


def grid_dims(p: int) -> Tuple[int, int]:
    """Near-square 2D factorisation of ``p`` ranks (px >= py)."""
    if p < 1:
        raise ValueError("need at least one rank")
    py = int(p**0.5)
    while p % py != 0:
        py -= 1
    return p // py, py


def neighbors_2d(rank: int, px: int, py: int) -> dict:
    """N/S/E/W neighbour ranks of ``rank`` in a px x py grid (row-major),
    with None at domain boundaries."""
    ix, iy = rank % px, rank // px
    return {
        "west": rank - 1 if ix > 0 else None,
        "east": rank + 1 if ix < px - 1 else None,
        "south": rank - px if iy > 0 else None,
        "north": rank + px if iy < py - 1 else None,
    }
