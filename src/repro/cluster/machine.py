"""Machine specifications and the calibrated cost model.

A :class:`MachineSpec` bundles every constant the simulation charges time
for: network latency/bandwidth, Vampirtrace per-event costs, trampoline
overheads, DPCL daemon costs, and filesystem throughput.  Two presets
mirror the paper's testbeds:

* :data:`POWER3_SP` — the IBM Power3 clustered SMP (144 nodes x 8 x 375
  MHz, AIX 5.1, Colony switch) used for Figures 7, 8(a), 8(b) and 9.
* :data:`IA32_LINUX` — the 16-node Intel Pentium III Linux cluster used
  for Figure 8(c).

The absolute values are calibrated so the *shapes* of the paper's figures
hold (who wins, by roughly what factor, where curves bend); see
EXPERIMENTS.md for the paper-vs-measured comparison.
"""

from __future__ import annotations

import hashlib
import json
from functools import cached_property
from typing import Any, Dict

from .._record import FrozenRecord

__all__ = ["MachineSpec", "POWER3_SP", "IA32_LINUX", "get_machine", "MACHINES"]


class MachineSpec(FrozenRecord):
    """Immutable description of a cluster and its cost constants.

    All times are seconds of simulated time; all sizes are bytes.  The
    annotated class attributes below are the field table: their order
    is the order of :meth:`canonical` (and so of cache entries), and a
    field with a value is a constant whose default that value is.
    """

    name: str
    #: Number of SMP nodes in the cluster.
    n_nodes: int
    #: Cores (processors) per node.
    cores_per_node: int
    #: Clock rate, for documentation/reporting only.
    cpu_mhz: int

    # ---- interconnect ----------------------------------------------------
    #: One-way small-message latency between two nodes.
    net_latency: float = 20e-6
    #: Point-to-point bandwidth between nodes.
    net_bandwidth: float = 350e6
    #: Latency of an intra-node (shared-memory) message.
    shm_latency: float = 1.2e-6
    #: Intra-node copy bandwidth.
    shm_bandwidth: float = 1.5e9
    #: Relative stddev of latency jitter (deterministic RNG stream).
    net_jitter: float = 0.08
    #: Per-message CPU overhead on the sender/receiver (MPI stack cost).
    mpi_overhead: float = 4e-6
    #: Message size (bytes) above which rendezvous protocol is used.
    eager_limit: int = 16 * 1024
    #: Per-rank fixed cost of MPI_Init (runtime setup before the sync).
    mpi_init_cost: float = 0.08

    # ---- Vampirtrace instrumentation library -----------------------------
    #: Cost of one *active* VT event (one VT_begin or one VT_end):
    #: timestamp read + record append into the trace buffer.
    vt_active_event_cost: float = 1.6e-6
    #: Cost of a *deactivated* statically inserted VT_begin/VT_end call:
    #: the call happens, a deactivation-table lookup is done, then returns.
    vt_lookup_cost: float = 1.0e-6
    #: Cost of registering a function name with VT_funcdef.
    vt_funcdef_cost: float = 12e-6
    #: Cost per VT event when also recording an MPI message record.
    vt_msg_event_cost: float = 2.2e-6
    #: Per-process fixed cost of rebuilding the deactivation table during
    #: a VT_confsync epoch change.
    confsync_apply_cost: float = 180e-6
    #: Per-process fixed cost of entering/leaving VT_confsync (epoch
    #: check, bookkeeping) even when nothing changes.
    confsync_base_cost: float = 60e-6
    #: Per-dissemination-stage bookkeeping cost of the VT configuration
    #: sync fabric, charged ceil(log2 P) times per confsync epoch.  The
    #: real VGV confsync ran over the tool's own channels, much slower
    #: than raw MPI — this constant carries that difference.
    confsync_stage_cost: float = 2.8e-3
    #: Per-function cost of aggregating statistics for a stats dump.
    stats_per_func_cost: float = 2.0e-6
    #: Bytes of one trace record on disk (used for trace-size accounting).
    trace_record_bytes: int = 24
    #: Records accumulated per process before the in-memory VT buffer is
    #: full and must be flushed to the shared filesystem mid-run
    #: (~2.4 MB at 24 B/record — a period-realistic buffer size).  Apps
    #: with low call intensity (Sweep3d, and the subset-only policies)
    #: never fill it, so they never pay mid-run trace I/O.
    vt_flush_threshold_records: int = 100_000
    #: Aggregate shared-filesystem bandwidth available for trace flushes;
    #: concurrent writers divide it, which is why complete profiling of a
    #: call-intensive app (Smg98 Full) melts down at 64 processes.
    trace_fs_bandwidth: float = 150e6

    # ---- dynamic instrumentation (trampolines) ---------------------------
    #: Jump at the probe point + base trampoline (register save/restore,
    #: relocated instruction, jump back), charged once per probe firing.
    tramp_base_cost: float = 0.35e-6
    #: Dispatch cost per mini-trampoline in the chain.
    tramp_mini_cost: float = 0.10e-6
    #: Cost per snippet primitive executed inside a mini-trampoline
    #: (function call, variable access, arithmetic node).
    snippet_op_cost: float = 0.05e-6

    # ---- DPCL ------------------------------------------------------------
    #: One-way latency of a client <-> communication-daemon message.
    dpcl_msg_latency: float = 900e-6
    #: Relative jitter on DPCL message latency (the paper's asynchrony).
    dpcl_jitter: float = 0.35
    #: Time for a super daemon to authenticate a user and fork a
    #: communication daemon.
    dpcl_connect_cost: float = 0.35
    #: Time for a communication daemon to attach (ptrace) to one process.
    dpcl_attach_cost: float = 0.18
    #: Daemon-side cost of parsing one process image (symbol table walk)
    #: before the first probe can be installed.
    dpcl_parse_image_cost: float = 0.9
    #: Daemon-side cost of installing one probe (allocate trampoline,
    #: generate code, patch the jump) into one process image.
    dpcl_install_probe_cost: float = 3.2e-3
    #: Daemon-side cost of removing one probe.
    dpcl_remove_probe_cost: float = 1.4e-3
    #: Daemon-side cost of (de)activating an installed probe.
    dpcl_activate_probe_cost: float = 0.5e-3
    #: Client-side cost per target process of downloading and navigating
    #: its program structure (DPCL source hierarchy / symbol table) —
    #: serial at the instrumenter, which is why Figure 9's MPI curves
    #: grow with the process count.
    dpcl_client_per_process_cost: float = 1.1
    #: Client-side per-symbol component of the program-structure walk.
    dpcl_client_per_symbol_cost: float = 2.5e-3

    # ---- OpenMP (Guide runtime analog) -------------------------------------
    #: Master-side fixed cost of forking a parallel region.
    omp_fork_base_cost: float = 2.5e-6
    #: Additional fork cost per team thread.
    omp_fork_per_thread_cost: float = 0.9e-6
    #: Per-thread cost of an OpenMP barrier.
    omp_barrier_cost: float = 1.4e-6
    #: Per-chunk dispatch cost of dynamic/guided worksharing schedules.
    omp_chunk_cost: float = 0.25e-6
    #: Cost of acquiring/releasing a critical-section lock.
    omp_lock_cost: float = 0.4e-6

    # ---- job launch (poe analog) ------------------------------------------
    #: Fixed cost of contacting the resource manager and setting up a job.
    poe_job_setup_cost: float = 1.6
    #: Per-process cost of spawning one task on a node.
    poe_spawn_cost: float = 0.11
    #: Per-node component of job launch (loading the image from the FS).
    poe_load_image_cost: float = 0.55

    # ---- filesystem (shared, e.g. GPFS) -----------------------------------
    fs_open_cost: float = 0.02
    fs_write_bandwidth: float = 60e6
    #: Fixed per-process cost of a stats/trace flush rendezvous.
    fs_sync_cost: float = 1.1e-3

    # ---- OS ---------------------------------------------------------------
    #: Scheduling quantum used to chunk long computations so that suspend
    #: requests land promptly (simulation granularity, not a cost).
    compute_quantum: float = 0.05
    #: Relative magnitude of per-chunk OS noise.
    os_noise: float = 0.0015

    def __init__(self, name: str, n_nodes: int, cores_per_node: int,
                 cpu_mhz: int, **constants: Any) -> None:
        for key in constants:
            if key not in _DEFAULTS:
                raise TypeError(f"MachineSpec.__init__() got an unexpected "
                                f"keyword argument {key!r}")
        self.__dict__.update(_DEFAULTS, name=name, n_nodes=n_nodes,
                             cores_per_node=cores_per_node, cpu_mhz=cpu_mhz,
                             **constants)

    def total_cores(self) -> int:
        """Total processor count of the machine."""
        return self.n_nodes * self.cores_per_node

    def message_time(self, nbytes: int, intra_node: bool) -> float:
        """Deterministic part of a point-to-point transfer time."""
        if intra_node:
            return self.shm_latency + nbytes / self.shm_bandwidth
        return self.net_latency + nbytes / self.net_bandwidth

    def with_overrides(self, **kw: float) -> "MachineSpec":
        """A copy of this spec with some constants replaced (for ablations)."""
        return MachineSpec(**{**self.canonical(), **kw})

    # -- canonical forms --------------------------------------------------
    #
    # A sweep keys, hashes and labels hundreds of points that share one
    # spec, so its derived forms are computed once per instance.

    @cached_property
    def _forms(self) -> "_Forms":
        return _Forms(self)

    def __hash__(self) -> int:
        return self._forms.hash

    def __getstate__(self) -> Dict[str, Any]:
        # The memo holds a str hash, which is salted per interpreter: it
        # must never travel in a pickle (or a copy), only the fields do,
        # and the receiving side builds its own memo on first use.
        state = dict(self.__dict__)
        state.pop("_forms", None)
        return state

    def canonical(self) -> Dict[str, Any]:
        """Every field by name, in declaration order, as a fresh dict."""
        return dict(self._forms.fields)

    @property
    def canonical_json(self) -> str:
        """:meth:`canonical` as compact, sort-keyed JSON, encoded once."""
        return self._forms.json

    @property
    def variant_tag(self) -> str:
        """``""`` for a spec equal to the preset of its name, else a
        short digest of its constants that tells it apart (an ablated
        ``with_overrides`` copy keeps its preset's name)."""
        preset = MACHINES.get(self.name)
        if preset is self or (
            preset is not None and preset._forms.json == self._forms.json
        ):
            return ""
        return self._forms.digest


MachineSpec._fields = tuple(MachineSpec.__annotations__)
#: Each cost constant and its default: the fields with a class value.
_DEFAULTS: Dict[str, Any] = {
    name: vars(MachineSpec)[name]
    for name in MachineSpec._fields if name in vars(MachineSpec)
}


class _Forms:
    """The derived forms of one :class:`MachineSpec` instance."""

    __slots__ = ("fields", "json", "hash", "digest")

    def __init__(self, spec: MachineSpec) -> None:
        # Every field is an int, float or str, so the dict is JSON-safe
        # as it stands.
        self.fields = {name: getattr(spec, name) for name in spec._fields}
        self.json = json.dumps(self.fields, sort_keys=True,
                               separators=(",", ":"))
        # The hash of the field tuple, as FrozenRecord computes it.
        self.hash = hash(tuple(self.fields.values()))
        self.digest = hashlib.sha256(self.json.encode("utf-8")).hexdigest()[:8]


#: The IBM Power3 clustered SMP of the paper (Section 4.1).
POWER3_SP = MachineSpec(
    name="power3-sp",
    n_nodes=144,
    cores_per_node=8,
    cpu_mhz=375,
)

#: The 16-node Intel IA32 Linux cluster of the paper (Section 5, Fig 8c).
#: Pentium III nodes on 100 Mb Ethernet-class fabric: higher per-byte cost,
#: but the small confsync payloads make the absolute sync times smaller
#: than on the (much larger) IBM runs, as the paper observes.
IA32_LINUX = MachineSpec(
    name="ia32-linux",
    n_nodes=16,
    cores_per_node=2,
    cpu_mhz=800,
    net_latency=55e-6,
    net_bandwidth=11e6,
    shm_latency=0.9e-6,
    shm_bandwidth=1.0e9,
    mpi_overhead=7e-6,
    vt_active_event_cost=1.1e-6,
    vt_lookup_cost=0.30e-6,
    confsync_apply_cost=120e-6,
    confsync_base_cost=40e-6,
    confsync_stage_cost=1.0e-3,
    dpcl_msg_latency=500e-6,
    fs_write_bandwidth=25e6,
)

MACHINES: Dict[str, MachineSpec] = {
    POWER3_SP.name: POWER3_SP,
    IA32_LINUX.name: IA32_LINUX,
}


def get_machine(name: str) -> MachineSpec:
    """Look up a machine preset by name."""
    try:
        return MACHINES[name]
    except KeyError:
        raise KeyError(
            f"unknown machine {name!r}; known: {sorted(MACHINES)}"
        ) from None
