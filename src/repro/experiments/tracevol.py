"""Trace-volume experiment — quantifying the paper's motivation.

Section 1: "Performance data gathering has been estimated to grow at
the rate of 2 megabytes per second on RISC-based processors ... for
massively parallel computing systems the amount of collected data can
be impractical for all but the shortest programs."

This supplementary experiment (not a numbered figure in the paper)
measures, for each application at a fixed CPU count, the trace volume
and the per-process data rate under every policy — making explicit the
trade the policies buy: Dynamic delivers the Subset data at ~None cost
and a vanishing fraction of Full's bytes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .._record import Record
from ..apps import ALL_APPS, get_app
from ..cluster import MachineSpec, POWER3_SP
from ..dynprof import PolicyResult
from ..faults import FaultPlan
from ..runner import SweepPoint, SweepRunner
from .artifacts import Plan, run_plan

__all__ = [
    "TraceVolumeRow",
    "run_tracevol",
    "render_tracevol",
    "tracer_trace_bytes",
    "run_tracevol_crosscheck",
    "run_tracevol_compression",
    "render_compression",
]

#: Bytes per raw trace record (the :class:`repro.vt.TraceFile` default).
TRACE_RECORD_BYTES = 24


class TraceVolumeRow(Record):
    """One (app, policy) row; ``rate_mb_s_per_proc`` is the MB/s per
    process while the app ran (the paper's 2 MB/s yardstick)."""

    _fields = ("app", "policy", "n_cpus", "time", "records", "mbytes",
               "rate_mb_s_per_proc")

    def __init__(self, app: str, policy: str, n_cpus: int, time: float,
                 records: int, mbytes: float,
                 rate_mb_s_per_proc: float) -> None:
        self.app = app
        self.policy = policy
        self.n_cpus = n_cpus
        self.time = time
        self.records = records
        self.mbytes = mbytes
        self.rate_mb_s_per_proc = rate_mb_s_per_proc


def run_tracevol(
    apps: Optional[List[str]] = None,
    n_cpus: int = 16,
    scale: float = 0.1,
    machine: MachineSpec = POWER3_SP,
    seed: int = 0,
    runner: Optional[SweepRunner] = None,
    faults: Optional[FaultPlan] = None,
) -> List[TraceVolumeRow]:
    """Measure trace volume per (app, policy) at one CPU count.

    The cells are the same ``policy`` sweep points Figure 7 runs, so a
    shared cache serves both experiments from one set of simulations.
    """
    return run_plan(tracevol_plan(apps, n_cpus, scale, machine, seed, faults),
                    runner)


def tracevol_plan(apps: Optional[List[str]], n_cpus: int, scale: float,
                  machine: MachineSpec, seed: int,
                  faults: Optional[FaultPlan]) -> Plan:
    """One ``policy`` point per (app, policy), each app at its largest
    CPU count up to ``n_cpus``, and the reducer that measures the rows."""
    points = [
        SweepPoint.policy_cell(app.name, policy, app.clamp_cpus(n_cpus),
                               scale=scale, machine=machine, seed=seed,
                               faults=faults)
        for app in map(get_app, apps if apps is not None else list(ALL_APPS))
        for policy in app.policies
    ]

    def rows(payloads: List[dict]) -> List[TraceVolumeRow]:
        out: List[TraceVolumeRow] = []
        for payload in payloads:
            result = PolicyResult(**payload)
            mb = result.trace_bytes / 1e6
            rate = (mb / result.time / result.n_cpus) if result.time > 0 else 0.0
            out.append(TraceVolumeRow(
                app=result.app, policy=result.policy, n_cpus=result.n_cpus,
                time=result.time, records=result.trace_records,
                mbytes=mb, rate_mb_s_per_proc=rate,
            ))
        return out

    return points, rows


def artifact_plan(n_cpus: int, seed: int, scale: float,
                  faults: Optional[FaultPlan]) -> Plan:
    """The ``tracevol`` artifact: every app at ``n_cpus``, as a table."""
    points, rows = tracevol_plan(None, n_cpus, scale, POWER3_SP, seed, faults)
    return points, lambda payloads: render_tracevol(rows(payloads))


def render_tracevol(rows: List[TraceVolumeRow]) -> str:
    """Text table of per-(app, policy) trace volumes and data rates."""
    lines = [
        "Trace volume by policy (the paper's 2 MB/s/processor yardstick)",
        f"{'app':<9s} {'policy':<9s} {'cpus':>4s} {'time(s)':>9s} "
        f"{'records':>13s} {'MB':>9s} {'MB/s/proc':>10s}",
        "-" * 70,
    ]
    for r in rows:
        lines.append(
            f"{r.app:<9s} {r.policy:<9s} {r.n_cpus:>4d} {r.time:>9.2f} "
            f"{r.records:>13,} {r.mbytes:>9.2f} {r.rate_mb_s_per_proc:>10.3f}"
        )
    return "\n".join(lines) + "\n"


# -- tracer-derived volume cross-check --------------------------------------------


def tracer_trace_bytes(trace_doc: Dict[str, Any],
                       record_bytes: int = TRACE_RECORD_BYTES) -> int:
    """Trace volume derived from a causal-trace document.

    ``counts["vt.records"]`` is the drop-immune raw-record counter the
    VT probe path maintains (see :mod:`repro.obs.trace`); multiplied by
    the on-disk record size it is an independent measurement of the
    same quantity the analytic model (``records x record_bytes`` inside
    :class:`repro.vt.TraceFile`) predicts.
    """
    return int(trace_doc.get("counts", {}).get("vt.records", 0)) * record_bytes


def run_tracevol_crosscheck(
    apps: Optional[List[str]] = None,
    policy: str = "Full",
    n_cpus: int = 4,
    scale: float = 0.05,
    machine: MachineSpec = POWER3_SP,
    seed: int = 0,
    batched: bool = True,
) -> List[Dict[str, Any]]:
    """Run one traced cell per app and compare the tracer-derived trace
    volume against the analytic model's.

    Returns one row per app: ``{"app", "policy", "analytic_bytes",
    "tracer_bytes", "rel_err", "batched", "raw_records",
    "expanded_records"}``.  ``rel_err`` excludes the handful of
    finalisation markers (suspension intervals) the analytic count
    includes but the runtime counter cannot see; it stays well under a
    few percent on every app, which is the acceptance tolerance the
    test suite pins.

    Two knobs make the :class:`~repro.vt.records.BatchPairRecord`
    accounting fully exercised rather than assumed:

    * ``batched=False`` re-runs the same workload with the executor's
      batch fast path off (:func:`repro.program.set_batching`), so the
      stream carries raw enter/leave pairs where the batched stream
      carries aggregate records — both must match the analytic model
      to the same tolerance;
    * every row expands the trace's batch records explicitly
      (:func:`repro.compact.codec.expand_batch_pairs`) and reports the
      expanded stream's length, which must equal ``raw_records``
      exactly — the 2n-per-batch identity the volume model rests on.
    """
    from ..compact.codec import expand_batch_pairs
    from ..dynprof import run_policy_job
    from ..obs import trace as obs_trace
    from ..program import set_batching

    rows: List[Dict[str, Any]] = []
    for name in (apps if apps is not None else list(ALL_APPS)):
        previous = set_batching(batched)
        try:
            with obs_trace.tracing(detail="coarse") as tracer:
                result, job = run_policy_job(
                    get_app(name), policy, n_cpus,
                    scale=scale, machine=machine, seed=seed,
                )
            trace_doc = tracer.snapshot()
        finally:
            set_batching(previous)
        analytic = int(result.trace_bytes)
        derived = tracer_trace_bytes(trace_doc)
        rel_err = (
            abs(derived - analytic) / analytic if analytic else
            (0.0 if derived == 0 else float("inf"))
        )
        raw_records = job.trace.raw_record_count
        expanded = sum(
            sum(1 for _ in expand_batch_pairs(buf.records))
            for buf in job.trace.buffers.values()
        )
        rows.append({
            "app": name,
            "policy": policy,
            "analytic_bytes": analytic,
            "tracer_bytes": derived,
            "rel_err": rel_err,
            "batched": batched,
            "raw_records": raw_records,
            "expanded_records": expanded,
        })
    return rows


# -- compression-ratio curve -------------------------------------------------------


def run_tracevol_compression(
    apps: Optional[List[str]] = None,
    policy: str = "Full",
    n_cpus: int = 4,
    scale: float = 0.05,
    machine: MachineSpec = POWER3_SP,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Per-app compression curve of the VGVZ codec, model-cross-checked.

    Runs one policy cell per app, compresses the postmortem
    :class:`~repro.vt.buffer.TraceFile` with suppression on and off,
    and returns one row per app::

        {"app", "policy", "n_cpus", "raw_records", "analytic_bytes",
         "compact_bytes", "unsuppressed_bytes", "bytes_per_record",
         "ratio", "folds", "lossless"}

    ``analytic_bytes`` is the volume model (``raw_records x
    record_bytes``) and is asserted equal to the codec's own
    ``model_bytes`` accounting; ``lossless`` is a per-app round-trip
    verification (decode equals input, record for record).
    """
    from ..compact.codec import compress_trace_bytes, decompress_trace
    from ..dynprof import run_policy_job

    rows: List[Dict[str, Any]] = []
    for name in (apps if apps is not None else list(ALL_APPS)):
        result, job = run_policy_job(
            get_app(name), policy, n_cpus,
            scale=scale, machine=machine, seed=seed,
        )
        trace = job.trace
        data, stats = compress_trace_bytes(trace)
        if stats.model_bytes != trace.size_bytes:
            raise RuntimeError(
                f"{name}: codec model accounting {stats.model_bytes} != "
                f"analytic volume {trace.size_bytes}"
            )
        _data_off, stats_off = compress_trace_bytes(trace, suppress=False)
        decoded = decompress_trace(data)
        lossless = _same_records(trace, decoded)
        rows.append({
            "app": name,
            "policy": policy,
            "n_cpus": int(result.n_cpus),
            "raw_records": stats.raw_records,
            "analytic_bytes": stats.model_bytes,
            "compact_bytes": stats.compact_bytes,
            "unsuppressed_bytes": stats_off.compact_bytes,
            "bytes_per_record": stats.bytes_per_record,
            "ratio": stats.ratio,
            "folds": stats.folds,
            "lossless": lossless,
        })
    return rows


def _same_records(a: Any, b: Any) -> bool:
    """Record-for-record, field-for-field equality of two TraceFiles."""
    if sorted(a.buffers) != sorted(b.buffers):
        return False
    for key, buf in a.buffers.items():
        other = b.buffers[key].records
        if len(buf.records) != len(other):
            return False
        for x, y in zip(buf.records, other):
            if type(x) is not type(y):
                return False
            if any(getattr(x, s) != getattr(y, s) for s in x.__slots__):
                return False
    return True


def render_compression(rows: List[Dict[str, Any]]) -> str:
    """Text table of the per-app compression curve."""
    lines = [
        "VGVZ compression vs the analytic volume model "
        "(records x 24 bytes)",
        f"{'app':<9s} {'cpus':>4s} {'records':>12s} {'model MB':>9s} "
        f"{'VGVZ KB':>9s} {'B/rec':>7s} {'ratio':>8s} {'folds':>6s}",
        "-" * 72,
    ]
    for r in rows:
        lines.append(
            f"{r['app']:<9s} {r['n_cpus']:>4d} {r['raw_records']:>12,} "
            f"{r['analytic_bytes'] / 1e6:>9.2f} "
            f"{r['compact_bytes'] / 1e3:>9.1f} "
            f"{r['bytes_per_record']:>7.3f} {r['ratio']:>7.1f}x "
            f"{r['folds']:>6d}"
        )
    return "\n".join(lines) + "\n"
