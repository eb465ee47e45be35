"""The MPI runtime: world/job state, rank contexts, MPI_Init semantics.

``MPI_Init`` and ``MPI_Finalize`` are registered as *symbols in the
application image* and invoked through the normal call protocol
(``yield from pctx.call("MPI_Init")``).  This matters: dynprof patches
the **exit probe point of MPI_Init** with its bootstrap snippet
(Figure 6), which only works if MPI_Init is an instrumentable function
of the image.  The VT library initialises itself inside MPI_Init via
the wrapper interface, exactly like the real Vampirtrace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Optional

from ..cluster import Cluster, Node, Task
from ..simt import Environment
from .comm import Communicator
from .transport import Transport

if TYPE_CHECKING:  # pragma: no cover
    from ..program import ExecutableImage, ProgramContext
    from ..vt import TraceFile

__all__ = ["MpiWorld", "RankContext", "install_mpi_symbols"]


class RankContext:
    """Per-rank MPI state, attached to the rank's ProgramContext as
    ``pctx.mpi``."""

    __slots__ = ("world", "rank", "task", "pctx", "comm", "initialized", "finalized")

    def __init__(self, world: "MpiWorld", rank: int, task: Task, pctx: "ProgramContext") -> None:
        self.world = world
        self.rank = rank
        self.task = task
        self.pctx = pctx
        self.comm = Communicator(world, rank, task, pctx)
        self.initialized = False
        self.finalized = False

    @property
    def size(self) -> int:
        return self.world.n_ranks

    # -- MPI_Init / MPI_Finalize bodies ------------------------------------------

    def init_body(self, pctx: "ProgramContext") -> Generator:
        """The body of MPI_Init: runtime setup + implicit synchronisation,
        then the VT wrapper hook (VT initialises *inside* MPI_Init)."""
        if self.initialized:
            raise RuntimeError(f"rank {self.rank}: MPI_Init called twice")
        task = self.task
        task.charge(self.world.spec.mpi_init_cost)
        yield from self.comm._dissemination()  # ranks synchronise in init
        wrapper = self.world.wrappers[self.rank]
        if wrapper is not None:
            wrapper.on_init_complete(pctx)
        self.initialized = True
        self.world._init_count += 1

    def finalize_body(self, pctx: "ProgramContext") -> Generator:
        """The body of MPI_Finalize: drain, synchronise, flush traces."""
        if not self.initialized:
            raise RuntimeError(f"rank {self.rank}: MPI_Finalize before MPI_Init")
        if self.finalized:
            raise RuntimeError(f"rank {self.rank}: MPI_Finalize called twice")
        yield from self.comm._dissemination()
        wrapper = self.world.wrappers[self.rank]
        if wrapper is not None:
            wrapper.on_finalize(pctx, self.world.trace)
        self.finalized = True

    def __repr__(self) -> str:
        return f"<RankContext {self.rank}/{self.size}>"


class MpiWorld:
    """One MPI job: ranks, transport, wrappers, shared trace file."""

    def __init__(self, env: Environment, cluster: Cluster, rank_nodes: List[Node]) -> None:
        if not rank_nodes:
            raise ValueError("an MPI job needs at least one rank")
        self.env = env
        self.cluster = cluster
        self.spec = cluster.spec
        self.rank_nodes = rank_nodes
        self.transport = Transport(env, cluster, rank_nodes)
        self.rank_contexts: List[Optional[RankContext]] = [None] * len(rank_nodes)
        #: Per-rank VT wrapper hooks (None when VT is not linked in).
        self.wrappers: List[Any] = [None] * len(rank_nodes)
        #: The postmortem trace file wrappers flush into at finalize.
        self.trace: Optional["TraceFile"] = None
        self._init_count = 0

    @property
    def n_ranks(self) -> int:
        return len(self.rank_nodes)

    @property
    def all_initialized(self) -> bool:
        return self._init_count == self.n_ranks

    def attach_rank(self, rank: int, task: Task, pctx: "ProgramContext") -> RankContext:
        """Bind rank ``rank`` to its task and program context."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        if self.rank_contexts[rank] is not None:
            raise ValueError(f"rank {rank} already attached")
        rctx = RankContext(self, rank, task, pctx)
        self.rank_contexts[rank] = rctx
        pctx.mpi = rctx
        # Snippets inserted by dynprof may call MPI_Barrier by name (Fig 6).
        pctx.image.register_runtime(
            "MPI_Barrier", lambda p: p.mpi.comm._dissemination()
        )
        return rctx

    def set_wrapper(self, rank: int, wrapper: Any) -> None:
        self.wrappers[rank] = wrapper

    def __repr__(self) -> str:
        return f"<MpiWorld {self.n_ranks} ranks on {self.cluster.spec.name}>"


def install_mpi_symbols(exe: "ExecutableImage") -> None:
    """Add MPI_Init / MPI_Finalize to an application's symbol table.

    Their bodies delegate to the rank context; their probe points are
    instrumentable like any other function — which is exactly what the
    dynprof bootstrap exploits.
    """

    def mpi_init(pctx: "ProgramContext") -> Generator:
        yield from pctx.mpi.init_body(pctx)

    def mpi_finalize(pctx: "ProgramContext") -> Generator:
        yield from pctx.mpi.finalize_body(pctx)

    exe.define("MPI_Init", body=mpi_init, module="libmpi")
    exe.define("MPI_Finalize", body=mpi_finalize, module="libmpi")
