"""dynprof — the DPCL-based dynamic instrumenter (Section 3).

The tool spawns a target application (through the poe analog), attaches
to it via DPCL, and inserts Vampirtrace subroutine entry/exit probes at
run time.  Invocation mirrors the paper's::

    dynprof <stdin> <stdout> <timefile> <target> <params> <poe params>

Lifecycle (Section 3.3/3.4):

1. **spawn** — the target is created but suspended at its first
   instruction; the bootstrap snippet (Figure 6) is patched into the
   exit of MPI_Init (or VT_init for OpenMP) immediately upon loading.
2. **pre-start commands** — insert/remove requests are *queued*: it is
   unsafe to insert VT probes before MPI_Init/VT_init completes.
3. **start** — the application runs to the bootstrap: ranks barrier,
   send the DPCL callback, and spin.  Once every callback has arrived
   the tool installs the queued instrumentation into each stopped
   process image, registers the function names with VT, releases the
   spins, and the ranks re-synchronise and enter main computation.
4. **mid-run insert/remove** — suspend all (blocking), patch, resume;
   the suspension shows up as timeline inactivity.
5. **quit** — detach; active probes remain in the application.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple, Union

from ..cluster import Cluster, Task
from ..dpcl import DpclClient, DpclError, RequestPolicy, raise_failures
from ..dpcl.client import Failures
from ..jobs import MpiJob, OmpJob
from ..obs.tap import get as _tap_get
from ..program import ENTRY, EXIT, ProbeHandle
from ..simt import Environment, Process
from ..vt import BEGIN, END, VTProbeSnippet
from .bootstrap import (
    INIT_CALLBACK_TAG,
    SPIN_VARIABLE,
    bootstrap_anchor,
    mpi_init_bootstrap,
    vt_init_bootstrap,
)
from .commands import Command, HELP_TEXT, parse_script
from .timefile import Timefile

__all__ = ["DynProf", "DynProfError", "DEGRADED_POLICY"]

#: Request policy armed automatically when a fault plan is installed:
#: generous per-wait timeouts (well above the largest per-node handler
#: cost at the paper's scales) with two resend waves.
DEGRADED_POLICY = RequestPolicy(
    timeout=10.0, max_retries=2, backoff=0.5, backoff_multiplier=2.0
)

#: Seconds (simulated) to wait for init callbacks past the last one
#: before quarantining the silent ranks.
CALLBACK_TIMEOUT = 10.0


class DynProfError(RuntimeError):
    """Tool-level usage errors (bad state transitions etc.)."""


class DynProf:
    """The dynamic instrumenter, driving one target job.

    Parameters
    ----------
    job:
        The target application job, which must have been constructed
        with ``start_suspended=True`` (dynprof spawns then instruments;
        attaching to an already-running job is future work, exactly as
        in the paper).
    file_contents:
        In-memory provider for ``insert-file``/``remove-file`` command
        arguments: maps file name -> text with one function glob per
        line.
    """

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        job: Union[MpiJob, OmpJob],
        *,
        file_contents: Optional[Dict[str, str]] = None,
        attach: bool = False,
    ) -> None:
        if not attach and not job.start_suspended:
            raise DynProfError(
                "dynprof requires a job built with start_suspended=True "
                "(spawn-then-instrument), or attach=True to attach to an "
                "already-running application"
            )
        self.attach_mode = attach
        self.env = env
        self.cluster = cluster
        self.job = job
        self.kind = "omp" if isinstance(job, OmpJob) else "mpi"
        self.spec = cluster.spec
        node = cluster.node(0)
        #: The tool runs on an interactive node and needs no compute core.
        self.task = Task(env, node, f"dynprof:{job.exe.name}", self.spec, bind_core=False)
        #: Degraded operation: armed whenever a fault injector is bound
        #: to the cluster.  Requests get timeouts/retries, the bootstrap
        #: goes barrier-free, and un-instrumentable ranks are
        #: quarantined instead of killing the session.
        self.degraded = getattr(cluster, "faults", None) is not None
        self.client = DpclClient(env, cluster, node, job.daemon_host,
                                 policy=DEGRADED_POLICY if self.degraded else None)
        self.timefile = Timefile()
        self.output: List[str] = []
        #: process name -> reason it was excluded from instrumentation.
        self.quarantined: Dict[str, str] = {}

        #: Function names queued before start (acted on after the
        #: bootstrap callback confirms it is safe, Section 3.4).
        self._queued: List[str] = []
        #: (process, function) -> installed probe handles.
        self._handles: Dict[Tuple[str, str], List[ProbeHandle]] = {}
        self.state = "created"
        self._file_contents = dict(file_contents or {})
        self._tap = _tap_get()
        if self._tap.enabled:
            self._tap.dynprof_session()
        #: Seconds from session start until the app entered main
        #: computation (Figure 9's "time to create and instrument").
        self.create_and_instrument_time: Optional[float] = None

    # -- helpers ------------------------------------------------------------------

    @property
    def process_names(self) -> List[str]:
        return [t.name for t in self.job.tasks]

    @property
    def active_processes(self) -> List[str]:
        """Ranks still under tool control (not quarantined)."""
        if not self.quarantined:
            return self.process_names
        return [n for n in self.process_names if n not in self.quarantined]

    def _emit(self, text: str) -> None:
        self.output.append(text)

    def _now(self) -> float:
        return self.env.now

    def _quarantine(self, name: str, reason: str) -> None:
        if name in self.quarantined:
            return
        self.quarantined[name] = reason
        self._emit(f"quarantined {name}: {reason}")
        if self._tap.enabled:
            self._tap.inc("dynprof.quarantined_ranks")

    def _quarantine_node(self, node_index: int, reason: str) -> None:
        for task in self.job.tasks:
            if task.node.index == node_index:
                self._quarantine(task.name, reason)

    def _settle(self, failures: Failures, reason: str = "") -> None:
        """Settle what a request failed on.

        A strict session raises the request's structured error.  A
        degraded one carries on with the partial result and, given a
        ``reason`` (formatted with each failure's ``error`` and
        ``reason``), quarantines the ranks the request lost.
        """
        if not failures:
            return
        if not self.degraded:
            raise_failures(failures)
        if not reason:
            return
        if isinstance(failures, dict):
            for idx, ack in sorted(failures.items()):
                self._quarantine_node(idx, reason.format(**ack.error_info, error=ack.error))
        else:
            for failure in failures:
                self._quarantine(failure["process"], reason.format(**failure))

    def _controllable(self) -> List[str]:
        """Attached ranks the tool may still send requests about."""
        if not self.quarantined:
            return self.client.attached_processes
        return [
            n for n in self.client.attached_processes
            if n not in self.quarantined
        ]

    def _direct_release(self, name: str) -> None:
        """Launcher-side fallback for a rank DPCL can no longer reach:
        poe still holds the process handle, so the tool can resume a
        spawn-suspended rank and poke its spin flag directly, letting
        the application run (uninstrumented) instead of hanging."""
        target = self.job.daemon_host.lookup(name)
        if target is None:
            return
        task, image = target
        if task.is_suspend_requested:
            task.resume()
        # Pre-set (or release) the spin flag; a rank that never got the
        # bootstrap simply never reads it.
        image.write_variable(SPIN_VARIABLE, 1)

    def fault_report(self) -> Dict[str, object]:
        """Partial-coverage summary for a faulted session."""
        total = len(self.process_names)
        names = self.process_names
        injector = getattr(self.cluster, "faults", None)
        return {
            "degraded": self.degraded,
            "quarantined": dict(self.quarantined),
            "quarantined_ranks": sorted(
                names.index(n) for n in self.quarantined
            ),
            "coverage": (total - len(self.quarantined)) / total if total else 1.0,
            "injected": injector.summary() if injector is not None else {},
            "client_retries": self.client.retries,
            "stale_acks": self.client.stale_acks,
        }

    # -- session driver --------------------------------------------------------------

    def run_script(self, script: str) -> Process:
        """Start the tool process executing a command script."""
        return self.run_commands(parse_script(script))

    def run_commands(self, commands: Sequence[Command]) -> Process:
        return self.task.start(self.session(commands), name=self.task.name)

    def session(self, commands: Sequence[Command]) -> Generator:
        """The tool's main generator: spawn (or attach), then obey the
        commands."""
        if self.attach_mode:
            yield from self._attach_running()
        else:
            yield from self._spawn()
        for command in commands:
            yield from self.execute(command)
            if self.state == "detached":
                break
        return self

    def execute(self, command: Command) -> Generator:
        handler = {
            "help": self._cmd_help,
            "insert": self._cmd_insert,
            "remove": self._cmd_remove,
            "insert-file": self._cmd_insert_file,
            "remove-file": self._cmd_remove_file,
            "start": self._cmd_start,
            "quit": self._cmd_quit,
            "wait": self._cmd_wait,
        }[command.verb]
        yield from handler(command)

    # -- phase 1: spawn + bootstrap -----------------------------------------------------

    def _spawn(self) -> Generator:
        """Create the target (suspended) and patch in the bootstrap."""
        if self.state != "created":
            raise DynProfError(f"spawn in state {self.state}")
        tf = self.timefile
        tf.begin("create", self._now(), detail=f"{self.job.exe.name}")
        # poe: job setup, then per-process spawns and per-node image loads.
        yield self.env.timeout(self.spec.poe_job_setup_cost)
        n_procs = len(self.job.tasks)
        yield self.env.timeout(n_procs * self.spec.poe_spawn_cost)
        nodes = {t.node.index: t.node for t in self.job.tasks}
        yield self.env.timeout(len(nodes) * self.spec.poe_load_image_cost)
        self.job.start()  # suspended at first instruction
        tf.end("create", self._now())

        yield from self._connect_and_attach()

        # The bootstrap goes in immediately upon loading (Section 3.4).
        tf.begin("bootstrap", self._now())
        # Barrier-free under faults: a partially-bootstrapped job must not
        # have a barrier-count mismatch between ranks (see bootstrap.py).
        if self.kind == "mpi" and not self.degraded:
            snippet_factory = mpi_init_bootstrap
        else:
            snippet_factory = vt_init_bootstrap
        anchor = bootstrap_anchor(self.kind)
        probes = [
            (name, anchor, EXIT, snippet_factory())
            for name in self.active_processes
        ]
        _handles, failures = yield from self.client.install_probes(probes)
        self._settle(failures, "bootstrap install failed: {reason}")
        tf.end("bootstrap", self._now())
        self.state = "spawned"
        self._emit(f"spawned {self.job.exe.name} x{n_procs} (suspended)")

    # -- attach-to-running (the paper's acknowledged missing feature) -------------------

    def _attach_running(self) -> Generator:
        """Attach to an application that is already executing.

        The paper restricted its prototype to spawn-then-instrument but
        "[did] not foresee any difficult issues in extending [the] tool
        to support dynamic attachment" (Section 3.3).  The one real
        constraint carries over: no VT instrumentation may be inserted
        until MPI_Init / VT_init has completed on every process, so the
        attach waits for that before declaring the session live.
        """
        if self.state != "created":
            raise DynProfError(f"attach in state {self.state}")
        if self.kind == "mpi" and not self.job.procs:
            raise DynProfError("cannot attach: the target job is not running")
        if self.kind == "omp" and self.job.proc is None:
            raise DynProfError("cannot attach: the target job is not running")
        tf = self.timefile
        yield from self._connect_and_attach()
        # Defer until the target's instrumentation library is up.
        tf.begin("await-init", self._now())
        while not self._target_initialized():
            yield self.env.timeout(0.2)
        tf.end("await-init", self._now())
        self.state = "running"
        self._emit(f"attached to running {self.job.exe.name}")

    def _connect_and_attach(self) -> Generator:
        """Connect to every target's daemon and attach to the targets."""
        tf = self.timefile
        tf.begin("connect", self._now())
        _acks, failures = yield from self.client.connect(
            {t.name: t.node for t in self.job.tasks}
        )
        self._settle(failures, "daemon unreachable at connect")
        tf.end("connect", self._now())
        tf.begin("attach", self._now(), detail=f"{len(self.job.tasks)} processes")
        _names, failures = yield from self.client.attach(self.active_processes)
        self._settle(failures, "attach failed: {error}")
        tf.end("attach", self._now())

    def _target_initialized(self) -> bool:
        if self.kind == "mpi":
            return self.job.world.all_initialized
        vt = self.job.vt
        return vt is None or vt.initialized

    # -- safe-point patching (the Section 5.1 hybrid) -------------------------------------

    def patch_at_safe_point(
        self,
        insert: Sequence[str] = (),
        remove: Sequence[str] = (),
    ) -> Generator:
        """Insert/remove probes at the application's next VT_confsync.

        The hybrid the paper concludes with: instead of suspending the
        ranks wherever the asynchronous DPCL messages happen to catch
        them (skewed stops that leave residual imbalance), arm the
        ``configuration_break`` breakpoint and patch while rank 0 is
        halted at it.  The remaining ranks are either already blocked in
        the configuration broadcast or soon arrive at it; whatever skew
        the stop causes is absorbed by confsync's own closing barrier,
        so the ranks leave the safe point balanced.

        Returns the simulated time at which the safe point was reached.
        Requires the target to call VT_confsync at its safe points.
        """
        if self.state != "running":
            raise DynProfError(f"safe-point patch in state {self.state}")
        vt0 = self.job.vt_states[0] if self.kind == "mpi" else self.job.vt
        if vt0 is None:
            raise DynProfError("target has no VT library: no confsync safe points")
        if vt0.break_hook is not None:
            raise DynProfError("another monitor already owns the breakpoint")

        from ..simt import Channel

        hit = Channel(self.env, name="safe-point-hit")
        done = self.env.event()

        def hook(pctx):
            hit.put(pctx.env.now)
            yield from pctx.task.blocked_wait(done)
            return None  # no configuration change rides along

        vt0.break_hook = hook
        tf = self.timefile
        tf.begin("safe-point-wait", self._now())
        t_hit = yield hit.get()
        vt0.break_hook = None
        tf.end("safe-point-wait", self._now())

        t_patch0 = self._now()
        tf.begin("safe-point-patch", t_patch0,
                 detail=f"+{len(insert)} -{len(remove)} globs")
        # Rank 0 is parked in the hook; the other ranks are blocked in
        # (or running toward) the confsync broadcast.  The blocking
        # suspend certifies every target has stopped before any image
        # is touched.
        yield from self.client.suspend(self._controllable(), blocking=True)
        try:
            if insert:
                yield from self._install_into_all(list(insert))
            if remove:
                yield from self._remove_from_all(remove)
        finally:
            yield from self._resume_controllable()
            done.succeed()
        tf.end("safe-point-patch", self._now())
        if self._tap.enabled:
            self._tap.dynprof_patch(
                "dynprof.safe_point_patches", "safe-point patch",
                t_patch0, self._now(),
                {"insert": len(insert), "remove": len(remove),
                 "safe_point": t_hit},
            )
        self._emit(f"patched at safe point t={t_hit:.3f}s")
        return t_hit

    # -- commands ------------------------------------------------------------------------

    def _cmd_help(self, command: Command) -> Generator:
        self._emit(HELP_TEXT)
        return
        yield  # pragma: no cover

    def _expand_file_args(self, files: Sequence[str]) -> List[str]:
        names: List[str] = []
        for fname in files:
            text = self._file_contents.get(fname)
            if text is None:
                try:
                    with open(fname, "r", encoding="utf-8") as fh:
                        text = fh.read()
                except OSError as e:
                    raise DynProfError(f"cannot read function list {fname!r}: {e}")
            for line in text.splitlines():
                line = line.split("#", 1)[0].strip()
                if line:
                    names.append(line)
        return names

    def _cmd_insert(self, command: Command) -> Generator:
        yield from self._insert(list(command.args))

    def _cmd_insert_file(self, command: Command) -> Generator:
        yield from self._insert(self._expand_file_args(command.args))

    def _cmd_remove(self, command: Command) -> Generator:
        yield from self._remove(list(command.args))

    def _cmd_remove_file(self, command: Command) -> Generator:
        yield from self._remove(self._expand_file_args(command.args))

    def _insert(self, names: List[str]) -> Generator:
        if self.state in ("created",):
            raise DynProfError("insert before spawn")
        if self.state == "spawned":
            # Pre-start: record, act after the init callback (Section 3.4).
            self._queued.extend(names)
            self._emit(f"queued insert: {' '.join(names)}")
            return
        yield from self._suspend_patch_resume(install=names, remove=())

    def _remove(self, names: List[str]) -> Generator:
        if self.state == "spawned":
            remaining = [q for q in self._queued if q not in set(names)]
            self._queued = remaining
            self._emit(f"queued remove: {' '.join(names)}")
            return
        yield from self._suspend_patch_resume(install=(), remove=names)

    def _cmd_start(self, command: Command) -> Generator:
        if self.state != "spawned":
            raise DynProfError(f"start in state {self.state}")
        tf = self.timefile
        tf.begin("start", self._now())
        _n, failures = yield from self.client.resume(self.active_processes)
        self._settle(failures, "daemon unreachable at start")
        # Ranks DPCL cannot reach are released through the launcher so
        # the application (and its collectives) can still run.
        for name in list(self.quarantined):
            self._direct_release(name)
        tf.end("start", self._now())

        # Ranks run MPI_Init, barrier, call back, and spin.
        tf.begin("init-callbacks", self._now())
        expected = self.active_processes
        msgs = yield from self.client.wait_callback(
            tag=INIT_CALLBACK_TAG, n=len(expected),
            timeout=CALLBACK_TIMEOUT if self.degraded else None,
        )
        heard = {m.process_name for m in msgs}
        for name in expected:
            if name not in heard:
                self._quarantine(name, "no init callback (lost or daemon dead)")
                self._direct_release(name)
        tf.end("init-callbacks", self._now())

        # Install everything queued while the ranks are captive in the spin.
        if self._queued:
            tf.begin("instrument", self._now(), detail=f"{len(self._queued)} globs")
            yield from self._install_into_all(self._queued)
            tf.end("instrument", self._now())
            self._queued = []

        # Release the spins; the second barrier re-synchronises the ranks.
        tf.begin("release", self._now())
        for name in self.active_processes:
            try:
                yield from self.client.set_variable(name, SPIN_VARIABLE, 1)
            except DpclError as exc:
                if not self.degraded:
                    raise
                self._quarantine(name, f"spin release failed: {exc}")
                self._direct_release(name)
        tf.end("release", self._now())

        self.create_and_instrument_time = self._now()
        self.state = "running"
        if self.quarantined:
            self._emit(
                f"application started (degraded: {len(self.quarantined)}/"
                f"{len(self.process_names)} ranks quarantined)"
            )
        else:
            self._emit("application started")

    def _cmd_wait(self, command: Command) -> Generator:
        yield self.env.timeout(command.seconds)
        self._emit(f"waited {command.seconds}s")

    def _cmd_quit(self, command: Command) -> Generator:
        # Detach; all active instrumentation stays in the application.
        try:
            yield from self.client.detach()
        except DpclError as exc:
            if not self.degraded:
                raise
            self._emit(f"warning: detach incomplete: {exc}")
        self.state = "detached"
        self._emit("detached")

    # -- probe plumbing -------------------------------------------------------------------

    def _build_probe_requests(self, names: Sequence[str]):
        """Expand function globs into per-process VT probe requests."""
        probes = []
        registrations = []
        matched_any = set()
        for pname in self.active_processes:
            image = self.client.image_of(pname)
            for glob in names:
                for fi in image.find_functions(glob):
                    if fi.name in ("MPI_Init", "MPI_Finalize", "VT_init"):
                        continue  # never double-instrument the runtime anchors
                    matched_any.add(glob)
                    registrations.append((pname, fi.name))
                    probes.append((pname, fi.name, ENTRY, VTProbeSnippet(fi, BEGIN)))
                    probes.append((pname, fi.name, EXIT, VTProbeSnippet(fi, END)))
        unmatched = [g for g in names if g not in matched_any]
        if unmatched:
            self._emit(f"warning: no functions match {' '.join(unmatched)}")
        return probes, registrations

    def _install_into_all(self, names: Sequence[str]) -> Generator:
        probes, registrations = self._build_probe_requests(names)
        if not probes:
            return
        t_install0 = self._now()
        results, failures = yield from self.client.install_probes(
            probes, register_names=registrations
        )
        self._settle(failures)
        handles = [h for h in results if h is not None]
        for (pname, fname, _where, _snippet), handle in zip(probes, results):
            if handle is not None:
                self._handles.setdefault((pname, fname), []).append(handle)
        if failures:
            self._emit(
                f"warning: {len(failures)} probe install(s) failed: "
                + "; ".join(
                    f"{f['process']}:{f['function']} ({f['reason']})"
                    for f in failures[:4]
                )
            )
        if self._tap.enabled:
            self._tap.dynprof_insert(names, len(handles), len(failures),
                                     probes, self.process_names,
                                     t_install0, self._now())
        self._emit(f"installed {len(handles)} probes")

    def _remove_from_all(self, names: Sequence[str]) -> Generator:
        """Remove this tool's probes on functions matching ``names`` from
        every rank it still controls."""
        handles = []
        for pname in self._controllable():
            image = self.client.image_of(pname)
            for glob in names:
                for fi in image.find_functions(glob):
                    handles.extend(self._handles.pop((pname, fi.name), []))
        if not handles:
            return
        n = yield from self.client.remove_probes(handles)
        if self._tap.enabled:
            self._tap.dynprof_remove(n, self._now())
        self._emit(f"removed {n} probes")

    def _resume_controllable(self) -> Generator:
        """Resume after a mid-run patch.  Ranks whose daemon was lost in
        the meantime are quarantined and released through the launcher."""
        names = self._controllable()
        _n, failures = yield from self.client.resume(names)
        self._settle(failures, "daemon unreachable at resume")
        for name in names:
            if name in self.quarantined:
                self._direct_release(name)

    def _suspend_patch_resume(self, install: Sequence[str], remove: Sequence[str]) -> Generator:
        """Mid-run modification: stop-all, patch, continue-all.

        The suspend message reaches the per-node daemons with differing
        delays (DPCL asynchrony), so ranks stop at slightly different
        times — the imbalance Section 5.1 proposes confsync-triggered
        safe points to avoid.
        """
        if self.state != "running":
            raise DynProfError(f"mid-run patch in state {self.state}")
        tf = self.timefile
        t_patch0 = self._now()
        tf.begin("suspend", t_patch0)
        yield from self.client.suspend(self._controllable(), blocking=True)
        tf.end("suspend", self._now())
        try:
            if install:
                tf.begin("instrument", self._now(), detail=f"{len(install)} globs")
                yield from self._install_into_all(install)
                tf.end("instrument", self._now())
            if remove:
                tf.begin("remove", self._now(), detail=f"{len(remove)} globs")
                yield from self._remove_from_all(remove)
                tf.end("remove", self._now())
        finally:
            tf.begin("resume", self._now())
            yield from self._resume_controllable()
            tf.end("resume", self._now())
            if self._tap.enabled:
                self._tap.dynprof_patch(
                    "dynprof.suspend_patches", "suspend-patch-resume",
                    t_patch0, self._now(),
                    {"insert": len(install), "remove": len(remove)},
                )

    # -- introspection --------------------------------------------------------------------

    def probe_inventory(self) -> Dict[str, Dict[str, int]]:
        """Installed-probe counts: {process: {function: count}}.

        Counts only the probes this tool installed (bootstrap excluded),
        from its own handle table — what a user would see from the
        tool's perspective, not from omniscient image access.
        """
        inventory: Dict[str, Dict[str, int]] = {}
        for (pname, fname), handles in self._handles.items():
            if handles:
                inventory.setdefault(pname, {})[fname] = len(handles)
        return inventory

    def __repr__(self) -> str:
        return f"<DynProf {self.job.exe.name} state={self.state}>"
