"""Smg98 — the ASCI semicoarsening multigrid kernel (MPI/C).

The analog of hypre's SMG solver: per-rank local grid, V-cycles of
relax / residual / restrict / interpolate with halo exchanges, a global
residual reduction per cycle, and — matching the paper — a function
inventory of **199** functions of which **62** implement the solver.

Workload structure (what makes Figure 7(a) come out):

* weak scaling — the input sets the per-process size, so per-rank call
  counts and compute stay constant while coarse-level/synchronisation
  overhead grows with the process count;
* the 137 non-solver utility functions (box loops, index arithmetic)
  take ~6M calls per rank per full-scale run — tiny bodies, enormous
  rates;
* the 62 solver functions are called ~60 times per cycle — big bodies,
  low rates.

The numerics are real: each rank smooths an actual Poisson problem on a
numpy grid and the global residual norm (checked by the tests) decreases
monotonically cycle over cycle.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, List

from .base import AppSpec, MPI_SCALING_CPUS, NoiseProfile, grid_dims, neighbors_2d

if TYPE_CHECKING:  # the program model loads with the first simulation
    from ..program import ExecutableImage, ProgramContext

__all__ = ["SMG98", "build_exe", "make_program"]

# ---------------------------------------------------------------------------
# Function inventory: 199 functions, 62-solver subset (Section 4.3).
# ---------------------------------------------------------------------------

_SOLVER_CORE = [
    "hypre_SMGSolve",
    "hypre_SMGSetup",
    "hypre_SMGRelax",
    "hypre_SMGResidual",
    "hypre_SMGRestrict",
    "hypre_SMGIntAdd",
    "hypre_CyclicReduction",
    "hypre_SMGRelaxSetup",
    "hypre_SMGResidualSetup",
    "hypre_SMGRestrictSetup",
    "hypre_SMGIntAddSetup",
    "hypre_CyclicReductionSetup",
    "hypre_SMG3BuildRAPSym",
    "hypre_SMG3BuildRAPNoSym",
    "hypre_SMG3RAPPeriodicSym",
    "hypre_StructMatvec",
    "hypre_StructAxpy",
    "hypre_StructCopy",
    "hypre_StructInnerProd",
    "hypre_StructScale",
    "hypre_SemiInterp",
    "hypre_SemiRestrict",
]
_SOLVER_GEN = [f"hypre_SMGSolveLevel{i:02d}" for i in range(20)] + [
    f"hypre_SMG3BuildRAPStage{i:02d}" for i in range(20)
]
SOLVER_FUNCS = tuple(_SOLVER_CORE + _SOLVER_GEN)  # 62
assert len(SOLVER_FUNCS) == 62

_UTIL_HOT = [
    "hypre_BoxLoop0",
    "hypre_BoxLoop1",
    "hypre_BoxLoop2",
    "hypre_BoxLoop3",
    "hypre_BoxLoop4",
    "hypre_BoxGetSize",
    "hypre_BoxGetStrideVolume",
    "hypre_IndexCopy",
    "hypre_BoxVolume",
    "hypre_BoxIndexRank",
]
_UTIL_GEN = (
    [f"hypre_BoxUtil{i:02d}" for i in range(50)]
    + [f"hypre_StructUtil{i:02d}" for i in range(40)]
    + [f"hypre_CommPkg{i:02d}" for i in range(20)]
    + [f"hypre_DataExchange{i:02d}" for i in range(17)]
)
UTIL_FUNCS = tuple(_UTIL_HOT + _UTIL_GEN)  # 137
assert len(UTIL_FUNCS) == 137

ALL_FUNCS = SOLVER_FUNCS + UTIL_FUNCS  # 199
assert len(ALL_FUNCS) == 199

#: Calls into utility functions per V-cycle per rank at scale 1.0.
NOISE_CALLS_PER_CYCLE = 600_000
#: V-cycles at scale 1.0.
CYCLES = 10
#: Local grid edge (per rank).
LOCAL_N = 48
#: Multigrid levels resolvable within the local grid.
LOCAL_LEVELS = 5
#: Per-cycle compute budget (s) for the solver functions at level 0.
FINE_RELAX_COST = 0.12
#: Extra coarse-level cost per cycle per log2(P) level (poorly scaling
#: coarse solves; this is what makes Smg98's time grow with CPUs).
COARSE_LEVEL_COST = 0.17

_noise = NoiseProfile(UTIL_FUNCS, hot_count=10, hot_share=0.8, mean_cost=1.15e-6)


def build_exe(instrument_static: bool) -> ExecutableImage:
    """Compile Smg98: define all 199 symbols, optionally VT-instrumented."""
    from ..program import ExecutableImage

    exe = ExecutableImage("smg98")
    exe.define("hypre_SMGSolve", body=_smg_solve, module="smg")
    exe.define("hypre_SMGSetup", body=_smg_setup, module="smg")
    exe.define("hypre_SMGRelax", body=_smg_relax, module="smg")
    exe.define("hypre_SMGResidual", body=_smg_residual, module="smg")
    exe.define("hypre_SMGRestrict", body=_smg_restrict, module="smg")
    exe.define("hypre_SMGIntAdd", body=_smg_intadd, module="smg")
    exe.define("hypre_CyclicReduction", body=_smg_cyclic_reduction, module="smg")
    exe.define("hypre_StructInnerProd", body=_smg_inner_prod, module="struct_mv")
    for name in ALL_FUNCS:
        if name not in exe:
            exe.define(name, module="smg" if name in SOLVER_FUNCS else "struct_mv")
    if instrument_static:
        exe.instrument_statically()
    return exe


class _SmgState:
    """Per-rank solver state."""

    def __init__(self, rank: int, n_procs: int, scale: float) -> None:
        self.rank = rank
        self.n_procs = n_procs
        self.scale = scale
        self.px, self.py = grid_dims(n_procs)
        self.neighbors = neighbors_2d(rank, self.px, self.py)
        self.cycles = max(1, round(CYCLES * scale))
        #: log2(P) extra coarse levels from the growing global problem.
        self.extra_levels = max(0, int(math.ceil(math.log2(n_procs)))) if n_procs > 1 else 0
        self.levels = LOCAL_LEVELS + self.extra_levels
        import numpy as np

        # A real local Poisson problem: -lap(u) = f, u0 = 0.
        rng = np.random.default_rng(1234 + rank)
        self.f = rng.standard_normal((LOCAL_N, LOCAL_N))
        self.u = np.zeros((LOCAL_N, LOCAL_N))
        self.residual_history: List[float] = []
        self.local_res = 0.0


def _jacobi_sweeps(state: _SmgState, sweeps: int) -> None:
    """Real numerics: damped-Jacobi smoothing of the local problem."""
    import numpy as np

    u, f = state.u, state.f
    for _ in range(sweeps):
        avg = 0.25 * (
            np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1) + np.roll(u, -1, 1)
        )
        u = u + 0.8 * (avg + 0.25 * f - u)
    state.u = u


def _local_residual(state: _SmgState) -> float:
    import numpy as np

    u, f = state.u, state.f
    lap = (
        np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1) + np.roll(u, -1, 1)
        - 4.0 * u
    )
    return float(np.sum((lap + f) ** 2))


# -- solver function bodies (closures over pctx.props["smg"]) ----------------


def _smg_setup(pctx: ProgramContext) -> Generator:
    state: _SmgState = pctx.props["smg"]
    # RAP construction etc.: one-time cost + a burst of utility calls.
    for fn, n, cost in _noise.cold_batches(NOISE_CALLS_PER_CYCLE // 2):
        yield from pctx.call_batch(fn, n, cost)
    yield from pctx.call("hypre_SMG3BuildRAPSym")
    yield from pctx.call("hypre_SMGRelaxSetup")
    pctx.charge(0.25 * state.scale)


def _smg_relax(pctx: ProgramContext, level: int) -> Generator:
    state: _SmgState = pctx.props["smg"]
    if level == 0:
        _jacobi_sweeps(state, 2)
    pctx.charge(FINE_RELAX_COST * 2.0 ** (-level))
    yield from _halo_exchange(pctx, state, level)


def _smg_residual(pctx: ProgramContext, level: int) -> Generator:
    state: _SmgState = pctx.props["smg"]
    if level == 0:
        state.local_res = _local_residual(state)
    pctx.charge(0.6 * FINE_RELAX_COST * 2.0 ** (-level))
    return None
    yield  # pragma: no cover


def _smg_restrict(pctx: ProgramContext, level: int) -> Generator:
    pctx.charge(0.3 * FINE_RELAX_COST * 2.0 ** (-level))
    return None
    yield  # pragma: no cover


def _smg_intadd(pctx: ProgramContext, level: int) -> Generator:
    pctx.charge(0.3 * FINE_RELAX_COST * 2.0 ** (-level))
    return None
    yield  # pragma: no cover


def _smg_cyclic_reduction(pctx: ProgramContext, level: int) -> Generator:
    """Coarse-grid solve: poorly parallelised, latency-bound — charged
    at a rate that does not shrink with P.  One such level exists per
    log2(P), so Smg98's per-cycle time grows with the CPU count (the
    weak-scaling growth of Figure 7(a))."""
    state: _SmgState = pctx.props["smg"]
    pctx.charge(COARSE_LEVEL_COST)
    comm = pctx.mpi.comm
    _total = yield from comm.allreduce(state.local_res)


def _smg_inner_prod(pctx: ProgramContext) -> Generator:
    state: _SmgState = pctx.props["smg"]
    comm = pctx.mpi.comm
    total = yield from comm.allreduce(state.local_res)
    return math.sqrt(max(total, 0.0))


def _halo_exchange(pctx: ProgramContext, state: _SmgState, level: int) -> Generator:
    """Boundary exchange with the four grid neighbours (fine levels)."""
    if level > 2 or state.n_procs == 1:
        return
    comm = pctx.mpi.comm
    payload = state.u[0, :].copy()  # one boundary face
    for direction, opposite in (("east", "west"), ("north", "south")):
        dest = state.neighbors[direction]
        src = state.neighbors[opposite]
        tag = 100 + level * 4 + (0 if direction == "east" else 1)
        if dest is not None:
            req = comm.isend(payload, dest, tag=tag)
        if src is not None:
            yield from comm.recv(source=src, tag=tag)
        if dest is not None:
            yield from req.wait()


def _smg_solve(pctx: ProgramContext) -> Generator:
    """One V-cycle: down-sweep, coarse solve, up-sweep."""
    state: _SmgState = pctx.props["smg"]
    # Per-level noise budget halves as grids coarsen.
    weights = [2.0 ** (-l) for l in range(LOCAL_LEVELS)]
    wsum = sum(weights)
    # Down-sweep over the locally resolvable levels.
    for level in range(LOCAL_LEVELS):
        yield from pctx.call("hypre_SMGRelax", level)
        yield from pctx.call("hypre_SMGResidual", level)
        if level < LOCAL_LEVELS - 1:
            yield from pctx.call("hypre_SMGRestrict", level)
        budget = int(NOISE_CALLS_PER_CYCLE * weights[level] / wsum)
        for fn, n, cost in _noise.hot_batches(budget):
            yield from pctx.call_batch(fn, n, cost)
    # Coarse levels beyond the local grid (one per log2 P).
    for extra in range(state.extra_levels):
        yield from pctx.call("hypre_CyclicReduction", LOCAL_LEVELS + extra)
    # Up-sweep.
    for level in range(LOCAL_LEVELS - 2, -1, -1):
        yield from pctx.call("hypre_SMGIntAdd", level)
        yield from pctx.call("hypre_SMGRelax", level)
    # The long tail of utility calls, batched per cycle.
    for fn, n, cost in _noise.cold_batches(NOISE_CALLS_PER_CYCLE):
        yield from pctx.call_batch(fn, n, cost)
    # Global residual norm: the convergence check.
    norm = yield from pctx.call("hypre_StructInnerProd")
    state.residual_history.append(norm)
    return norm


def make_program(n_procs: int, scale: float = 1.0):
    """The per-rank Smg98 main program."""

    def program(pctx: ProgramContext) -> Generator:
        yield from pctx.call("MPI_Init")
        state = _SmgState(pctx.mpi.rank, n_procs, scale)
        pctx.props["smg"] = state
        yield from pctx.call("hypre_SMGSetup")
        comm = pctx.mpi.comm
        yield from comm.barrier()
        t0 = pctx.now
        for _cycle in range(state.cycles):
            yield from pctx.call("hypre_SMGSolve")
        yield from comm.barrier()
        elapsed = pctx.now - t0
        pctx.props["residuals"] = state.residual_history
        yield from pctx.call("MPI_Finalize")
        return elapsed

    return program


SMG98 = AppSpec(
    name="smg98",
    title="Smg98",
    lang="MPI/C",
    kind="mpi",
    description="A multigrid solver",
    functions=ALL_FUNCS,
    subset=SOLVER_FUNCS,
    dynamic_targets=SOLVER_FUNCS,
    scaling="weak",
    cpu_counts=MPI_SCALING_CPUS,
    build_exe=build_exe,
    make_program=make_program,
)
SMG98.validate()
