"""The fault injector: turns a :class:`FaultPlan` into runtime behaviour.

One :class:`FaultInjector` binds one plan to one
:class:`~repro.cluster.topology.Cluster`.  Installation attaches it to
``cluster.faults`` and ``cluster.interconnect.faults``; the hardened
layers (interconnect control deliveries, DPCL daemons, VT state, job
launch) consult it through those attributes and pay nothing when it is
absent.

Determinism contract
--------------------

Every probabilistic decision draws from a *named* stream under the
cluster RNG's dedicated ``faults`` namespace — keyed by what is being
decided (the link, the probe, the rank), never by global draw order —
so faults reproduce bit-for-bit for a given (plan, seed) and do not
perturb any pre-existing stream (network jitter, DPCL skew).  An empty
plan is never installed, draws nothing, and leaves the simulation
bit-identical to a run without the faults layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional, Tuple

from ..obs.tap import get as _tap_get
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import Cluster, Task

__all__ = ["FaultInjector"]


class FaultInjector:
    """Runtime oracle for one (plan, cluster) pair."""

    def __init__(self, plan: FaultPlan, cluster: "Cluster") -> None:
        self.plan = plan
        self.cluster = cluster
        self.env = cluster.env
        #: All draws live under the cluster's "faults" namespace.
        self.rng = cluster.rng.child("faults")
        self._tap = _tap_get()
        #: Injected-fault tally by kind (always kept, obs on or off).
        self.counts: Dict[str, int] = {}
        self._crash_specs = plan.by_kind("daemon_crash")
        self._loss_specs = plan.by_kind("message_loss")
        self._delay_specs = plan.by_kind("message_delay")
        self._probe_specs = plan.by_kind("probe_install_fail")

    # -- installation ---------------------------------------------------------

    @classmethod
    def install(
        cls, plan: Optional[FaultPlan], cluster: "Cluster"
    ) -> Optional["FaultInjector"]:
        """Attach an injector for ``plan`` to ``cluster``.

        Returns None (and installs nothing) for a missing or empty plan,
        so fault-free runs take exactly the pre-faults code paths.
        """
        if plan is None or plan.is_empty:
            return None
        injector = cls(plan, cluster)
        cluster.faults = injector
        cluster.interconnect.faults = injector
        return injector

    # -- bookkeeping ----------------------------------------------------------

    def _count(self, kind: str, n: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + n
        if self._tap.enabled:
            self._tap.fault_injected(kind, n)

    # -- recorded draws -------------------------------------------------------

    def _draw(self, stream: str) -> float:
        """One uniform [0, 1) draw from a named stream, order-logged."""
        value = float(self.rng.get(stream).random())
        if self._tap.enabled:
            self._tap.fault_draw(stream, value, self.env.now)
        return value

    def _draw_exponential(self, stream: str, mean: float) -> float:
        """One exponential draw from a named stream, order-logged."""
        value = float(self.rng.get(stream).exponential(mean))
        if self._tap.enabled:
            self._tap.fault_draw(stream, value, self.env.now)
        return value

    def summary(self) -> Dict[str, int]:
        """Injected-fault counts by kind (stable key order)."""
        return {k: self.counts[k] for k in sorted(self.counts)}

    @property
    def total_injected(self) -> int:
        return sum(self.counts.values())

    # -- DPCL daemon faults ---------------------------------------------------

    def daemon_down(self, node_index: int, now: float) -> bool:
        """True while the daemons on ``node_index`` are crashed."""
        for spec in self._crash_specs:
            if spec.node == node_index and spec.active_at(now):
                return True
        return False

    def note_daemon_drop(self, node_index: int) -> None:
        """A crashed daemon swallowed one request (counted per message)."""
        self._count("daemon_crash")

    def probe_install_fails(
        self, node_index: int, process_name: str, function: str
    ) -> bool:
        """Decide (deterministically) whether one probe install fails."""
        now = self.env.now
        for spec in self._probe_specs:
            if spec.node is not None and spec.node != node_index:
                continue
            if not spec.active_at(now):
                continue
            stream = f"probe.{node_index}.{process_name}.{function}"
            if self._draw(stream) < spec.probability:
                self._count("probe_install_fail")
                return True
        return False

    # -- interconnect faults --------------------------------------------------

    def on_control_message(
        self, src_index: int, dst_index: int, nbytes: int, now: float
    ) -> Tuple[bool, float]:
        """(drop?, extra_delay) for one control message on the wire."""
        for spec in self._loss_specs:
            if spec.active_at(now):
                stream = f"loss.{src_index}.{dst_index}"
                if self._draw(stream) < spec.probability:
                    self._count("message_loss")
                    return True, 0.0
        extra = 0.0
        for spec in self._delay_specs:
            if spec.active_at(now) and spec.delay > 0.0:
                stream = f"delay.{src_index}.{dst_index}"
                extra += self._draw_exponential(stream, spec.delay)
        if extra > 0.0:
            self._count("message_delay")
        return False, extra

    # -- job-level faults -----------------------------------------------------

    def apply_to_job(self, job) -> None:
        """Arm rank-level faults (stall, slowdown, VT write failure) on a
        freshly started job.  Called by the job launchers."""
        tasks = list(getattr(job, "tasks", ()))
        if not tasks and getattr(job, "task", None) is not None:
            tasks = [job.task]  # OmpJob: one process, rank 0
        for spec in self.plan.by_kind("rank_slowdown"):
            for rank, task in enumerate(tasks):
                if spec.rank is None or spec.rank == rank:
                    task.slowdown *= spec.factor
                    self._count("rank_slowdown")
        for spec in self.plan.by_kind("rank_stall"):
            if spec.rank < len(tasks):
                self.env.process(
                    self._stall(tasks[spec.rank], spec.start, spec.end),
                    name=f"fault:stall[{spec.rank}]",
                )
        vt_states = getattr(job, "vt_states", None)
        if vt_states is None:
            vt = getattr(job, "vt", None)
            vt_states = [vt] if vt is not None else []
        write_specs = self.plan.by_kind("vt_write_fail")
        if write_specs:
            for rank, vt in enumerate(vt_states):
                if vt is None:
                    continue
                specs = [s for s in write_specs
                         if s.rank is None or s.rank == rank]
                if specs:
                    vt.write_fault = self._make_vt_write_fault(rank, specs)

    def _stall(self, task: "Task", start: float, end: float) -> Generator:
        if start > self.env.now:
            yield self.env.timeout(start - self.env.now)
        if task.proc is not None and not task.proc.is_alive:
            return
        task.request_suspend()
        self._count("rank_stall")
        if end > self.env.now:
            yield self.env.timeout(end - self.env.now)
        if task.is_suspend_requested:
            task.resume()

    def _make_vt_write_fault(self, rank: int, specs):
        stream_name = f"vtwrite.{rank}"
        stream = self.rng.get(stream_name)

        def write_fails(task) -> bool:
            now = task.now
            for spec in specs:
                if spec.active_at(now):
                    value = float(stream.random())
                    if self._tap.enabled:
                        self._tap.fault_draw(stream_name, value, now)
                    if value < spec.probability:
                        self._count("vt_write_fail")
                        return True
            return False

        return write_fails

    def __repr__(self) -> str:
        return (
            f"<FaultInjector {len(self.plan)} spec(s), "
            f"{self.total_injected} injected>"
        )
