"""Umt98 — the ASCI Boltzmann-transport kernel (OpenMP/F77).

An unstructured-mesh photon/neutron transport sweep parallelised with
OpenMP: each iteration forks a parallel region whose threads grab mesh
slabs from a dynamic worksharing schedule, sweep them (real numpy
attenuation), and reduce the flux error.

Matching the paper: **44** functions, most of which perform one-time
initialisation; the **6** sweep functions carry the execution time and
are the Subset/Dynamic targets.  Strong scaling on 1..8 processors of a
single SMP node (Figure 7(d)); a single shared process image, which is
why dynprof's instrumentation time is flat in Figure 9.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List

from .base import AppSpec, NoiseProfile, OMP_SCALING_CPUS

if TYPE_CHECKING:  # the program model loads with the first simulation
    from ..program import ExecutableImage, ProgramContext

__all__ = ["UMT98", "build_exe", "make_program"]

# The 6 transport-sweep functions (Subset / Dynamic targets).
SWEEP_FUNCS = (
    "snswp3d",
    "snflwxyz",
    "snneed",
    "snmoments",
    "snqq",
    "snynmset",
)
# 38 init/utility functions ("most of which perform initialization").
INIT_FUNCS = tuple(
    [
        "rdmesh",
        "genmesh",
        "mkcolor",
        "snrzaset",
        "sngeom",
        "snmref",
        "snbdry",
        "snmat",
        "snsrc",
        "sninit",
    ]
    + [f"umt_setup{i:02d}" for i in range(16)]
    + [
        "umt_zoneidx",
        "umt_facemap",
        "umt_gather_psi",
        "umt_scatter_psi",
        "umt_angle_weights",
        "umt_timers",
        "umt_monitor",
        "umt_normalize",
        "umt_banner",
        "umt_checkpt",
        "umt_energy_balance",
        "umt_exit",
    ]
)
ALL_FUNCS = SWEEP_FUNCS + INIT_FUNCS  # 44
assert len(ALL_FUNCS) == 44

#: Transport iterations at scale 1.0.
ITERATIONS = 10
#: Total sweep work (thread-seconds) at scale 1.0 — strong scaling.
TOTAL_WORK = 350.0
#: Per-iteration utility calls across the whole team.
NOISE_CALLS_PER_ITER = 1_000_000
#: Mesh slabs handed out by the dynamic schedule per iteration.
SLABS = 64

_noise = NoiseProfile(
    ["umt_zoneidx", "umt_facemap", "umt_gather_psi", "umt_scatter_psi",
     "umt_angle_weights", "umt_timers", "umt_monitor", "umt_normalize"],
    hot_count=4,
    hot_share=0.85,
    mean_cost=1.2e-6,
)


def build_exe(instrument_static: bool) -> ExecutableImage:
    from ..program import ExecutableImage

    exe = ExecutableImage("umt98")
    exe.define("snswp3d", body=_snswp3d, module="umt")
    exe.define("snflwxyz", body=_snflwxyz, module="umt")
    exe.define("snmoments", body=_snmoments, module="umt")
    for name in ALL_FUNCS:
        if name not in exe:
            exe.define(name, module="umt")
    if instrument_static:
        exe.instrument_statically()
    return exe


class _UmtState:
    def __init__(self, n_threads: int, scale: float) -> None:
        import numpy as np

        self.n_threads = n_threads
        self.scale = scale
        self.iterations = max(1, round(ITERATIONS * scale))
        #: Cost of sweeping one slab (strong scaling: fixed total work).
        self.slab_cost = TOTAL_WORK * scale / (self.iterations * SLABS)
        self.psi = np.full((SLABS, 32), 1.0)
        self.sigma = 0.05
        self.err_history: List[float] = []


def _snswp3d(pctx: ProgramContext, start: int, stop: int) -> Generator:
    """Sweep mesh slabs [start, stop): the heavy kernel."""
    import numpy as np

    state: _UmtState = pctx.props["umt"]
    state.psi[start:stop] *= np.exp(-state.sigma)
    pctx.charge(state.slab_cost * (stop - start))
    budget = NOISE_CALLS_PER_ITER * (stop - start) // SLABS
    for fn, n, cost in _noise.hot_batches(budget):
        yield from pctx.call_batch(fn, n, cost)


def _snflwxyz(pctx: ProgramContext, start: int, stop: int) -> Generator:
    state: _UmtState = pctx.props["umt"]
    pctx.charge(state.slab_cost * 0.15 * (stop - start))
    return None
    yield  # pragma: no cover


def _snmoments(pctx: ProgramContext) -> None:
    state: _UmtState = pctx.props["umt"]
    state.psi += 0.01
    pctx.charge(state.slab_cost * 0.5)


def make_program(n_threads: int, scale: float = 1.0):
    from ..openmp import DynamicSchedule

    def program(pctx: ProgramContext) -> Generator:
        import numpy as np

        # The Guide compiler plants VT_init at the start of main.
        yield from pctx.call("VT_init")
        state = _UmtState(n_threads, scale)
        pctx.props["umt"] = state

        # Initialisation: most of the inventory runs exactly once.
        for name in INIT_FUNCS[:26]:
            yield from pctx.call(name)
            pctx.charge(2e-3)

        t0 = pctx.now
        omp = pctx.omp
        for _it in range(state.iterations):

            def slab_body(tctx: ProgramContext, start: int, stop: int) -> Generator:
                tctx.props["umt"] = state
                yield from tctx.call("snswp3d", start, stop)
                yield from tctx.call("snflwxyz", start, stop)

            yield from omp.parallel_for(
                SLABS, slab_body, schedule=DynamicSchedule(chunk=2),
                name="sn_sweep",
            )
            yield from pctx.call("snmoments")
            err = float(np.abs(state.psi).mean())
            state.err_history.append(err)
            for fn, n, cost in _noise.cold_batches(NOISE_CALLS_PER_ITER):
                yield from pctx.call_batch(fn, n, cost)
        elapsed = pctx.now - t0
        return elapsed

    return program


UMT98 = AppSpec(
    name="umt98",
    title="Umt98",
    lang="OMP/F77",
    kind="omp",
    description="The Boltzmann transport equation",
    functions=ALL_FUNCS,
    subset=SWEEP_FUNCS,
    dynamic_targets=SWEEP_FUNCS,
    scaling="strong",
    cpu_counts=OMP_SCALING_CPUS,
    build_exe=build_exe,
    make_program=make_program,
)
UMT98.validate()
