"""Sweep3d — the ASCI neutron-transport kernel (MPI/F77).

A KBA wavefront sweep: ranks form a 2D process grid; for each of the 8
octants a diagonal wavefront of work pipelines across the grid, with
each rank receiving inflow faces from its upstream neighbours, sweeping
its local block (real numpy flux attenuation), and sending outflow
faces downstream.

Matching the paper: **21** functions, *strong* scaling (the input fixes
the global problem, so per-rank work shrinks as 1/P), and a call
intensity so low that all instrumentation policies perform identically
(Figure 7(c)) — which is why the paper skipped a Subset version and the
Dynamic run instruments all 21 functions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional

from .base import AppSpec, NoiseProfile, grid_dims

if TYPE_CHECKING:  # the program model loads with the first simulation
    from ..program import ExecutableImage, ProgramContext

__all__ = ["SWEEP3D", "build_exe", "make_program"]

ALL_FUNCS = (
    "driver",
    "inner",
    "sweep",
    "source",
    "flux_err",
    "octant",
    "pipe_recv",
    "pipe_send",
    "snd_real",
    "rcv_real",
    "initialize",
    "read_input",
    "decomp",
    "task_init",
    "task_end",
    "initgeom",
    "initsrc",
    "octant_loop",
    "angle_loop",
    "global_int_sum",
    "timers",
)
assert len(ALL_FUNCS) == 21

#: Outer (source) iterations at scale 1.0.
ITERATIONS = 12
#: Total sweep work across all ranks per full-scale run (rank-seconds).
TOTAL_WORK = 560.0
#: Utility calls per octant across the whole job (low call intensity;
#: strong scaling divides them among the ranks like the zones they
#: iterate over).
NOISE_CALLS_TOTAL_PER_OCTANT = 16_000
#: k-plane/angle sub-blocks pipelined through the wavefront per octant
#: (KBA blocking: amortises the pipeline fill over the octant).
NBLOCKS = 8
#: The 8 octant sweep directions (dx, dy across the process grid).
OCTANTS = ((1, 1), (1, -1), (-1, 1), (-1, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))

_noise = NoiseProfile(
    ["angle_loop", "snd_real", "rcv_real", "timers"],
    hot_count=2,
    hot_share=0.9,
    mean_cost=1.0e-6,
)


def build_exe(instrument_static: bool) -> ExecutableImage:
    from ..program import ExecutableImage

    exe = ExecutableImage("sweep3d")
    exe.define("inner", body=_inner, module="sweep3d")
    exe.define("octant", body=_octant, module="sweep3d")
    exe.define("sweep", body=_sweep, module="sweep3d")
    exe.define("source", body=_source, module="sweep3d")
    exe.define("flux_err", body=_flux_err, module="sweep3d")
    exe.define("pipe_recv", body=_pipe_recv, module="sweep3d")
    exe.define("pipe_send", body=_pipe_send, module="sweep3d")
    for name in ALL_FUNCS:
        if name not in exe:
            exe.define(name, module="sweep3d")
    if instrument_static:
        exe.instrument_statically()
    return exe


class _SweepState:
    def __init__(self, rank: int, n_procs: int, scale: float) -> None:
        self.rank = rank
        self.n_procs = n_procs
        self.scale = scale
        self.px, self.py = grid_dims(n_procs)
        self.ix, self.iy = rank % self.px, rank // self.px
        self.iterations = max(1, round(ITERATIONS * scale))
        #: Per-rank sweep cost per octant (strong scaling: W / P / 8).
        self.block_cost = TOTAL_WORK / n_procs / (self.iterations * 8) * scale
        import numpy as np

        # Real flux block: attenuated every sweep.
        self.flux = np.full((16, 16), 1.0)
        self.sigma = 0.08
        self.current_octant = (1, 1)
        #: Per-rank utility calls per octant (shrinks with P).
        self.noise_per_octant = max(200, NOISE_CALLS_TOTAL_PER_OCTANT // n_procs)
        self.err_history: List[float] = []
        self.local_err = 0.0


def _upstream(state: _SweepState, d: int, axis: str) -> Optional[int]:
    """Rank this one receives from for sweep direction ``d`` on ``axis``."""
    if axis == "x":
        src_ix = state.ix - d
        if 0 <= src_ix < state.px:
            return state.iy * state.px + src_ix
        return None
    src_iy = state.iy - d
    if 0 <= src_iy < state.py:
        return src_iy * state.px + state.ix
    return None


def _downstream(state: _SweepState, d: int, axis: str) -> Optional[int]:
    if axis == "x":
        dst_ix = state.ix + d
        if 0 <= dst_ix < state.px:
            return state.iy * state.px + dst_ix
        return None
    dst_iy = state.iy + d
    if 0 <= dst_iy < state.py:
        return dst_iy * state.px + state.ix
    return None


def _pipe_recv(pctx: ProgramContext, octant_index: int, block: int) -> Generator:
    """Wait for the inflow faces of one sub-block from upstream."""
    state: _SweepState = pctx.props["sweep"]
    dx, dy = state.current_octant
    comm = pctx.mpi.comm
    tag = 500 + octant_index * NBLOCKS + block
    for axis, d in (("x", dx), ("y", dy)):
        src = _upstream(state, d, axis)
        if src is not None:
            yield from pctx.call("rcv_real")
            yield from comm.recv(source=src, tag=tag)


def _pipe_send(pctx: ProgramContext, octant_index: int, block: int) -> Generator:
    """Send one sub-block's outflow faces downstream."""
    state: _SweepState = pctx.props["sweep"]
    dx, dy = state.current_octant
    comm = pctx.mpi.comm
    tag = 500 + octant_index * NBLOCKS + block
    face = state.flux[0, :].copy()
    for axis, d in (("x", dx), ("y", dy)):
        dst = _downstream(state, d, axis)
        if dst is not None:
            yield from pctx.call("snd_real")
            yield from comm.send(face, dst, tag=tag)


def _sweep(pctx: ProgramContext, block: int) -> Generator:
    """Sweep one local sub-block: real attenuation + modelled cost."""
    state: _SweepState = pctx.props["sweep"]
    if block == 0:
        import numpy as np

        state.flux *= np.exp(-state.sigma)
    pctx.charge(state.block_cost / NBLOCKS)
    for fn, n, cost in _noise.hot_batches(state.noise_per_octant // NBLOCKS):
        yield from pctx.call_batch(fn, n, cost)


def _source(pctx: ProgramContext) -> None:
    state: _SweepState = pctx.props["sweep"]
    state.flux += 0.02
    pctx.charge(state.block_cost * 0.1)


def _octant(pctx: ProgramContext, octant_index: int) -> Generator:
    """One octant wavefront: NBLOCKS sub-blocks pipeline across ranks."""
    state: _SweepState = pctx.props["sweep"]
    state.current_octant = OCTANTS[octant_index]
    for block in range(NBLOCKS):
        yield from pctx.call("pipe_recv", octant_index, block)
        yield from pctx.call("sweep", block)
        yield from pctx.call("pipe_send", octant_index, block)


def _flux_err(pctx: ProgramContext) -> Generator:
    """Global convergence check: allreduce of the local flux change."""
    import numpy as np

    state: _SweepState = pctx.props["sweep"]
    state.local_err = float(np.abs(state.flux).mean())
    pctx.charge(1e-4)
    total = yield from pctx.mpi.comm.allreduce(state.local_err, op=max)
    state.err_history.append(total)
    return total


def _inner(pctx: ProgramContext) -> Generator:
    """One source iteration: all 8 octant wavefronts + convergence."""
    state: _SweepState = pctx.props["sweep"]
    yield from pctx.call("source")
    for octant_index in range(8):
        yield from pctx.call("octant", octant_index)
    err = yield from pctx.call("flux_err")
    for fn, n, cost in _noise.cold_batches(state.noise_per_octant):
        yield from pctx.call_batch(fn, n, cost)
    return err


def make_program(n_procs: int, scale: float = 1.0):
    def program(pctx: ProgramContext) -> Generator:
        yield from pctx.call("MPI_Init")
        state = _SweepState(pctx.mpi.rank, n_procs, scale)
        pctx.props["sweep"] = state
        yield from pctx.call("initialize")
        yield from pctx.call("decomp")
        comm = pctx.mpi.comm
        yield from comm.barrier()
        t0 = pctx.now
        for _it in range(state.iterations):
            yield from pctx.call("inner")
        yield from comm.barrier()
        elapsed = pctx.now - t0
        yield from pctx.call("MPI_Finalize")
        return elapsed

    return program


SWEEP3D = AppSpec(
    name="sweep3d",
    title="Sweep3d",
    lang="MPI/F77",
    kind="mpi",
    description="A neutron transport problem",
    functions=ALL_FUNCS,
    subset=ALL_FUNCS,          # Dynamic instruments all 21 functions
    dynamic_targets=ALL_FUNCS,
    scaling="strong",
    # The MPI version does not run on a single processor (Section 4.2).
    cpu_counts=(2, 4, 8, 16, 32, 64),
    build_exe=build_exe,
    make_program=make_program,
    has_subset_policy=False,
)
SWEEP3D.validate()
