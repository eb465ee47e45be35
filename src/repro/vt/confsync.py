"""VT_confsync — the dynamic-control synchronisation API (Section 5).

``vt_confsync`` is called collectively by every MPI rank at a *safe
point* (no messages in flight).  Rank 0 runs ``configuration_break`` —
a no-op a monitoring tool can hook to halt the application and hand a
new configuration over — then the (possibly unchanged) configuration is
broadcast, each rank rebuilds its deactivation table if needed, optional
runtime statistics are gathered and written, and a barrier closes the
epoch.

The three experiments of Figure 8 are exactly:

1. confsync with no configuration change (broadcast of "no change");
2. confsync applying a change (broadcast + table rebuild);
3. confsync with statistics generation (aggregate + gather + write).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from .config import VTConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..program import ProgramContext

__all__ = ["vt_confsync", "configuration_break"]


def configuration_break(pctx: "ProgramContext") -> Generator:
    """The no-op breakpoint anchor inside configuration_sync (Figure 2).

    When a monitoring tool has installed a break hook on the VT state,
    the application halts here until the tool resumes it; the hook may
    return a new :class:`VTConfig`.  Without a tool attached it returns
    immediately.
    """
    vt = pctx.image.vt
    if vt is None or vt.break_hook is None:
        return None
    result = vt.break_hook(pctx)
    if hasattr(result, "send"):
        result = yield from result
    return result


def vt_confsync(pctx: "ProgramContext", write_stats: Optional[bool] = None) -> Generator:
    """One collective configuration-sync epoch.  Returns the new config
    applied on this rank, or None when nothing changed.

    ``write_stats`` overrides the config's STATS flag (used by the
    Figure 8(b) experiment harness).
    """
    vt = pctx.image.vt
    rank = pctx.mpi
    if vt is None:
        raise RuntimeError("vt_confsync called without a VT library attached")
    if rank is None:
        raise RuntimeError("vt_confsync called outside an MPI program")
    task = pctx.task
    t_enter = task.now

    # Entering the sync point: epoch check bookkeeping, plus the config
    # fabric's per-dissemination-stage cost (O(log P)).
    stages = max(1, (rank.size - 1).bit_length())
    task.charge(vt.spec.confsync_base_cost + stages * vt.spec.confsync_stage_cost)

    # Rank 0 visits the breakpoint; a monitoring tool may inject a config.
    new_config: Optional[VTConfig] = None
    if rank.rank == 0:
        new_config = yield from configuration_break(pctx)

    # Disseminate: either the serialized new config or a "no change" token.
    nbytes = new_config.payload_bytes() if new_config is not None else 8
    received = yield from rank.comm.bcast(new_config, root=0, size=nbytes)

    applied: Optional[VTConfig] = None
    if received is not None:
        vt.apply_config(received, task=task)
        applied = received

    do_stats = vt.config.stats if write_stats is None else write_stats
    if do_stats:
        yield from _write_statistics(pctx)

    # Close the epoch: no rank proceeds until all have the new table.
    yield from rank.comm.barrier()
    if vt._tap.enabled:
        vt._tap.vt_confsync(rank.rank, t_enter, task.now, vt.epoch,
                            applied is not None, bool(do_stats))
    return applied


def _write_statistics(pctx: "ProgramContext") -> Generator:
    """Runtime statistics generation (Figure 8(b) / experiment 3).

    Every rank aggregates its per-function statistics, the payloads are
    gathered to rank 0, and rank 0 appends them to the statistics file on
    the shared filesystem.
    """
    vt = pctx.image.vt
    rank = pctx.mpi
    task = pctx.task
    spec = vt.spec

    vt.charge_stats_generation(task)
    payload = vt.stats_payload_bytes()
    task.charge(spec.fs_sync_cost)
    sizes = yield from rank.comm.gather(payload, root=0, size=payload)
    if rank.rank == 0:
        total = sum(sizes)
        task.charge(spec.fs_open_cost + total / spec.fs_write_bandwidth)
        yield from task.flush()
