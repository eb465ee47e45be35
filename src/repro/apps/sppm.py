"""Sppm — the ASCI 3D gas-dynamics kernel (MPI/F77).

A simplified piecewise-parabolic-method hydrodynamics code: directional
sweeps (x, y, z) per timestep over a per-rank brick, a global Courant
reduction, and boundary exchanges with large halo payloads (rendezvous
protocol).  Matching the paper: **22** functions, **7** of which do the
heavy hydro work; the functions are few and large, so Sppm's call
intensity — and therefore its instrumentation overhead — is far milder
than Smg98's (Figure 7(b): "the difference is not as extreme").

Real numerics: each rank advects a 1D conservative gas profile per
sweep; total mass is conserved to machine precision (test invariant).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, List

from .base import AppSpec, MPI_SCALING_CPUS, NoiseProfile, grid_dims, neighbors_2d

if TYPE_CHECKING:  # the program model loads with the first simulation
    from ..program import ExecutableImage, ProgramContext

__all__ = ["SPPM", "build_exe", "make_program"]

# 7 heavy hydro functions (the Subset / Dynamic targets).
HYDRO_FUNCS = (
    "sppm_hydro_x",
    "sppm_hydro_y",
    "sppm_hydro_z",
    "sppm_riemann",
    "sppm_interpolate_parabola",
    "sppm_eos",
    "sppm_flatten",
)
# 15 support functions.
SUPPORT_FUNCS = (
    "sppm_main",
    "sppm_init",
    "sppm_decomp",
    "sppm_bdrys",
    "sppm_courant",
    "sppm_timer_start",
    "sppm_timer_stop",
    "sppm_dump_output",
    "sppm_checksum",
    "sppm_copy_strip",
    "sppm_pack_bdry",
    "sppm_unpack_bdry",
    "sppm_gridmap",
    "sppm_zone_index",
    "sppm_monitor",
)
ALL_FUNCS = HYDRO_FUNCS + SUPPORT_FUNCS  # 22
assert len(ALL_FUNCS) == 22

#: Timesteps at scale 1.0.
STEPS = 20
#: Utility calls per step per rank (moderate: big functions, few calls).
NOISE_CALLS_PER_STEP = 75_000
#: Per-sweep hydro compute (s): body + riemann + parabola + eos.
SWEEP_BODY_COST = 0.30
RIEMANN_COST = 0.15
PARABOLA_COST = 0.10
EOS_COST = 0.05
#: Per-step synchronisation/imbalance growth with log2(P) (weak scaling).
SYNC_GROWTH_COST = 0.115
#: Halo payload per exchange (large: rendezvous protocol).
HALO_BYTES = 256 * 1024

_noise = NoiseProfile(
    ["sppm_copy_strip", "sppm_pack_bdry", "sppm_unpack_bdry", "sppm_zone_index",
     "sppm_gridmap", "sppm_monitor", "sppm_timer_start", "sppm_timer_stop"],
    hot_count=4,
    hot_share=0.85,
    mean_cost=1.1e-6,
)


def build_exe(instrument_static: bool) -> ExecutableImage:
    from ..program import ExecutableImage

    exe = ExecutableImage("sppm")
    for axis in "xyz":
        exe.define(f"sppm_hydro_{axis}", body=_make_hydro(axis), module="hydro")
    exe.define("sppm_riemann", body=_riemann, module="hydro")
    exe.define("sppm_interpolate_parabola", body=_parabola, module="hydro")
    exe.define("sppm_eos", body=_eos, module="hydro")
    exe.define("sppm_flatten", body=_flatten, module="hydro")
    exe.define("sppm_courant", body=_courant, module="driver")
    exe.define("sppm_bdrys", body=_bdrys, module="driver")
    for name in ALL_FUNCS:
        if name not in exe:
            exe.define(name, module="driver")
    if instrument_static:
        exe.instrument_statically()
    return exe


class _SppmState:
    def __init__(self, rank: int, n_procs: int, scale: float) -> None:
        self.rank = rank
        self.n_procs = n_procs
        self.scale = scale
        self.px, self.py = grid_dims(n_procs)
        self.neighbors = neighbors_2d(rank, self.px, self.py)
        self.steps = max(1, round(STEPS * scale))
        import numpy as np

        # Real 1D conservative gas profile per rank.
        n = 512
        x = np.linspace(0.0, 1.0, n, endpoint=False)
        self.rho = 1.0 + 0.3 * np.sin(2 * np.pi * (x + 0.1 * rank))
        self.velocity = 0.4
        self.dx = 1.0 / n
        self.initial_mass = float(self.rho.sum() * self.dx)
        self.dt = 0.0
        self.mass_history: List[float] = []


def _advect(state: _SppmState) -> None:
    """First-order conservative upwind advection (mass-preserving)."""
    import numpy as np

    c = state.velocity * state.dt / state.dx
    c = max(0.0, min(c, 0.9))
    flux = state.rho * c
    state.rho = state.rho - flux + np.roll(flux, 1)


def _make_hydro(axis: str):
    def hydro(pctx: ProgramContext) -> Generator:
        state: _SppmState = pctx.props["sppm"]
        yield from pctx.call("sppm_flatten")
        yield from pctx.call("sppm_interpolate_parabola")
        yield from pctx.call("sppm_riemann")
        yield from pctx.call("sppm_eos")
        if axis == "x":
            _advect(state)  # real numerics once per step
        pctx.charge(SWEEP_BODY_COST)
        for fn, n, cost in _noise.hot_batches(NOISE_CALLS_PER_STEP // 3):
            yield from pctx.call_batch(fn, n, cost)

    hydro.__name__ = f"sppm_hydro_{axis}"
    return hydro


def _riemann(pctx: ProgramContext) -> None:
    pctx.charge(RIEMANN_COST)


def _parabola(pctx: ProgramContext) -> None:
    pctx.charge(PARABOLA_COST)


def _eos(pctx: ProgramContext) -> None:
    pctx.charge(EOS_COST)


def _flatten(pctx: ProgramContext) -> None:
    pctx.charge(0.02)


def _courant(pctx: ProgramContext) -> Generator:
    """Global timestep: allreduce(min) of the local CFL limit."""
    state: _SppmState = pctx.props["sppm"]
    local_dt = 0.9 * state.dx / max(abs(state.velocity), 1e-12)
    pctx.charge(0.01)
    state.dt = yield from pctx.mpi.comm.allreduce(local_dt, op=min)
    return state.dt


def _bdrys(pctx: ProgramContext) -> Generator:
    """Ghost-zone exchange with large halo payloads + sync growth."""
    import numpy as np

    state: _SppmState = pctx.props["sppm"]
    pctx.charge(0.02)
    if state.n_procs > 1:
        pctx.charge(SYNC_GROWTH_COST * math.log2(state.n_procs))
    comm = pctx.mpi.comm
    halo = np.zeros(HALO_BYTES // 8)
    for direction, opposite in (("east", "west"), ("north", "south")):
        dest = state.neighbors[direction]
        src = state.neighbors[opposite]
        tag = 300 + (0 if direction == "east" else 1)
        if dest is not None and src is not None:
            yield from comm.sendrecv(halo, dest, sendtag=tag, source=src, recvtag=tag)
        elif dest is not None:
            yield from comm.send(halo, dest, tag=tag)
        elif src is not None:
            yield from comm.recv(source=src, tag=tag)


def make_program(n_procs: int, scale: float = 1.0):
    def program(pctx: ProgramContext) -> Generator:
        yield from pctx.call("MPI_Init")
        state = _SppmState(pctx.mpi.rank, n_procs, scale)
        pctx.props["sppm"] = state
        yield from pctx.call("sppm_init")
        comm = pctx.mpi.comm
        yield from comm.barrier()
        t0 = pctx.now
        for _step in range(state.steps):
            yield from pctx.call("sppm_courant")
            yield from pctx.call("sppm_bdrys")
            yield from pctx.call("sppm_hydro_x")
            yield from pctx.call("sppm_hydro_y")
            yield from pctx.call("sppm_hydro_z")
            for fn, n, cost in _noise.cold_batches(NOISE_CALLS_PER_STEP):
                yield from pctx.call_batch(fn, n, cost)
            state.mass_history.append(float(state.rho.sum() * state.dx))
        yield from comm.barrier()
        elapsed = pctx.now - t0
        yield from pctx.call("MPI_Finalize")
        return elapsed

    return program


SPPM = AppSpec(
    name="sppm",
    title="Sppm",
    lang="MPI/F77",
    kind="mpi",
    description="A 3D gas dynamics problem",
    functions=ALL_FUNCS,
    subset=HYDRO_FUNCS,
    dynamic_targets=HYDRO_FUNCS,
    scaling="weak",
    cpu_counts=MPI_SCALING_CPUS,
    build_exe=build_exe,
    make_program=make_program,
)
SPPM.validate()
