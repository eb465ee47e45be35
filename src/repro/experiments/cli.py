"""Command-line harness regenerating every table and figure.

Usage::

    repro-experiments table1 table2 table3      # the paper's tables
    repro-experiments fig7a --scale 0.1         # one Figure 7 panel
    repro-experiments fig7 --jobs 8             # all four panels, parallel
    repro-experiments fig8a fig8b fig8c         # confsync costs
    repro-experiments fig9                      # create+instrument time
    repro-experiments all --scale 0.05          # everything
    repro-experiments fig7a --csv out.csv       # machine-readable dump
    repro-experiments fig7a --json              # JSON document on stdout
    repro-experiments sweep --apps smg98 --policies Full,None \\
        --cpus 1,4,16 --jobs 4                  # an ad-hoc grid

Workload ``--scale`` shrinks simulated workloads proportionally (the
paper-shape ratios are scale-invariant); ``--quick`` caps the largest
process counts for fast smoke runs.

Every figure's grid executes through :class:`repro.runner.SweepRunner`:
``--jobs N`` fans the (app x policy x CPUs) points over N worker
processes (default 0 = one per CPU; 1 runs them in-process, which is
also the default under a profiler so that the profile sees the
simulation), one pool for the whole invocation, and results are
memoized in a
content-addressed cache (``--cache-dir``, default
``~/.cache/repro/sweep`` or ``$REPRO_CACHE_DIR``; ``--no-cache``
disables it) so a re-run with the same configuration is served
entirely from disk.  ``--progress`` streams JSON-lines telemetry to
stderr; ``--timeout`` bounds each point's wall-clock time; ``--obs
FILE`` additionally collects :mod:`repro.obs` simulator metrics for
every computed point and writes one merged JSON document; ``--trace
DIR`` collects a :mod:`repro.obs.trace` causal trace per computed
point and writes one ``<label>.trace.json`` each; ``--obs-sample SEC``
samples the metrics registry every SEC simulated seconds into
per-metric time series that ride the obs document (figure outputs
stay bit-identical with or without any of these).  ``--obs`` and
``--trace`` accept ``-`` to stream to stdout.

The ``obs`` subcommand post-processes a ``--obs`` document:
``obs report FILE`` pretty-prints the metrics, sampled series and
per-probe overhead profile (``--csv``/``--prom`` export CSV and
Prometheus text exposition).  The ``overhead-timeline`` experiment
plots instrumentation overhead versus simulated time for the four ASCI
apps under Full vs. Dynamic (sampled in-process; not part of ``all``).

The ``trace`` subcommand runs a single (app, policy, CPUs) point with
tracing on and prints the critical-path / perturbation summary —
optionally exporting Chrome-trace JSON (``--chrome``, loadable in
Perfetto) and an SVG timeline (``--svg``).

Record-and-replay (:mod:`repro.replay`, see ``docs/replay.md``):
``--record DIR`` on the figure/sweep commands records every computed
point's *order log* — the sequence of nondeterminism-relevant
decisions — as one ``<label>.order`` file each (``chaos --record
FILE`` records its single point); figure outputs stay byte-identical
with or without recording.  ``--replay PATH`` (a ``.order`` file or a
directory of them) re-runs matching points, bypassing the cache, and
verifies them against their recordings, reporting the first divergent
decision instead of silently different numbers; a replay that matches
no point fails too.  The ``replay`` subcommand works from logs alone: ``replay
verify LOG`` re-runs and checks the point a log describes, and
``replay bisect`` delta-debugs a failing fault plan to a 1-minimal
interesting subset.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from ..cliargs import positive_float, positive_int
from ..cluster import MACHINES, get_machine
from ..obs.trace import DEFAULT_CAPACITY as DEFAULT_TRACE_CAPACITY
from ..runner import SweepError, SweepPoint, SweepRunner, default_cache_dir
from ..runner.collect import (Collector, MetricsCollector, OrderCollector,
                             ReplayCollector, SampleCollector, TraceCollector)
from .artifacts import ARTIFACTS
from .results import FigureResult

if TYPE_CHECKING:
    from ..faults import FaultPlan

# The figure modules, the app catalogue, the policy names and the fault
# plans are imported by the functions that use them: an invocation
# loads what it runs, and only a simulated point loads the simulator
# (repro.runner.worker.preload).

__all__ = ["main", "run_experiment", "EXPERIMENTS", "ExperimentOutput"]

EXPERIMENTS = tuple(ARTIFACTS)

#: What one experiment id produces: rendered text blocks and/or
#: figure-likes (anything with render/to_csv/to_dict, e.g.
#: FigureResult or OverheadTimeline).
ExperimentOutput = Union[str, FigureResult]


def run_experiment(
    name: str,
    scale: float,
    seed: int,
    quick: bool,
    runner: Optional[SweepRunner] = None,
    faults: Optional[FaultPlan] = None,
) -> List[ExperimentOutput]:
    """Run one experiment id's :data:`~repro.experiments.artifacts.ARTIFACTS`
    record; returns text blocks / FigureResults.

    ``runner`` carries the worker pool, result cache and telemetry every
    grid runs through (None runs in-process without a cache).  An empty
    ``faults`` plan is equivalent to None and changes nothing.
    """
    if faults is not None and faults.is_empty:
        faults = None
    artifact = ARTIFACTS.get(name)
    if artifact is None:
        raise SystemExit(f"unknown experiment {name!r}; known: {EXPERIMENTS}")
    sampler = _collector(runner, SampleCollector)
    return artifact.run(runner, scale, seed, quick, faults,
                        sampler.interval if sampler is not None else None)


# -- runner plumbing ------------------------------------------------------------


def _profiled() -> bool:
    """Whether a profiler watches this thread: a ``sys.setprofile`` hook,
    or the ``sys.monitoring`` profiler slot cProfile takes from 3.12."""
    if sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and monitoring.get_tool(monitoring.PROFILER_ID) is not None


def _jobs(args: argparse.Namespace) -> int:
    """``--jobs``, or its default: 0 (one worker per CPU), except under a
    profiler, whose hook does not follow the work into pool workers, so
    the points run in-process (1) where the profile can see them."""
    if args.jobs is not None:
        return args.jobs
    return 1 if _profiled() else 0


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the sweep grids "
                             "(default 0 = one per CPU; 1 = in-process, "
                             "also the default under a profiler)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="content-addressed result cache location "
                             f"(default {default_cache_dir()})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--timeout", type=positive_float, default=None,
                        metavar="SEC",
                        help="per-point wall-clock budget in seconds")
    parser.add_argument("--progress", action="store_true",
                        help="stream JSON-lines sweep telemetry to stderr")
    parser.add_argument("--obs", metavar="FILE", default=None,
                        help="collect simulator metrics (events, messages, "
                             "trace records, probe patches) per computed "
                             "point and write one merged JSON document to "
                             "FILE ('-' = stdout); figure outputs are "
                             "unaffected")
    parser.add_argument("--obs-sample", type=positive_float, default=None,
                        metavar="SEC",
                        help="sample the metrics registry every SEC "
                             "simulated seconds into per-metric time "
                             "series (riding the --obs document); figure "
                             "outputs are unaffected")
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help="collect a causal trace per computed point and "
                             "write one <label>.trace.json each into DIR "
                             "('-' = JSON lines on stdout); figure outputs "
                             "are unaffected")
    parser.add_argument("--trace-detail", choices=("fine", "coarse"),
                        default="fine",
                        help="trace detail: 'fine' includes per-function "
                             "spans, 'coarse' subsystem events only")
    parser.add_argument("--trace-capacity", type=positive_int,
                        default=DEFAULT_TRACE_CAPACITY, metavar="N",
                        help="per-track trace ring-buffer bound in events "
                             f"(default {DEFAULT_TRACE_CAPACITY}; evictions "
                             "are counted, not silent)")
    parser.add_argument("--trace-compact", action="store_true",
                        help="fold repeated event subsequences when a trace "
                             "ring fills instead of dropping immediately "
                             "(repro.compact); figure outputs are "
                             "unaffected")
    parser.add_argument("--record", metavar="DIR", default=None,
                        help="record every computed point's nondeterminism "
                             "order log and write one <label>.order file "
                             "each into DIR (repro.replay; figure outputs "
                             "are unaffected)")
    parser.add_argument("--replay", metavar="PATH", default=None,
                        help="re-run points against recorded order logs "
                             "(PATH: one .order file or a directory of "
                             "them, matched by point label; the cache is "
                             "not used); divergence fails the point with a "
                             "first-divergence report, and a replay that "
                             "verifies no log fails the run")


def _load_replay_logs(path: str) -> Dict[str, str]:
    """Load recorded order logs from one ``.order`` file or a directory
    of them; returns a ``label -> base64 log`` mapping keyed by each
    log's recorded point label.  Raises ``ValueError`` naming the
    offending file."""
    from ..compact.container import to_ascii
    from ..replay.orderlog import OrderLog

    if os.path.isdir(path):
        files = [os.path.join(path, entry)
                 for entry in sorted(os.listdir(path))
                 if entry.endswith(".order")]
        if not files:
            raise ValueError(f"--replay {path}: no .order files")
    else:
        files = [path]
    logs: Dict[str, str] = {}
    for file in files:
        try:
            with open(file, "rb") as fh:
                data = fh.read()
            log = OrderLog.from_bytes(data)
        except (OSError, ValueError) as exc:
            raise ValueError(f"--replay {file}: {exc}") from None
        label = log.meta.get("label")
        if not label:
            raise ValueError(
                f"--replay {file}: log metadata carries no point label")
        logs[label] = to_ascii(data)
    return logs


def _collectors(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> List[Collector]:
    """The collectors the observation flags (``--obs``, ``--trace``,
    ``--obs-sample``, ``--record``, ``--replay``) ask for.

    Conflicting flags are usage errors; an unreadable replay log raises
    ``ValueError``."""
    if args.record and args.replay:
        parser.error("--record and --replay are mutually exclusive")
    collectors: List[Collector] = []
    if args.obs:
        collectors.append(MetricsCollector())
    if getattr(args, "trace", None):
        collectors.append(TraceCollector(detail=args.trace_detail,
                                         capacity=args.trace_capacity,
                                         compact=args.trace_compact))
    if args.obs_sample:
        collectors.append(SampleCollector(args.obs_sample))
    if args.record:
        collectors.append(OrderCollector())
    if args.replay:
        collectors.append(ReplayCollector(_load_replay_logs(args.replay)))
    return collectors


def _print_divergence(divergence: Dict[str, Any], file: Any = None) -> None:
    """Where a replayed run first departed from its log, then the
    recorded and the actual decision."""
    print(f"  first divergence: decision #{divergence.get('index')} "
          f"(t={divergence.get('sim_time')}, "
          f"channel={divergence.get('channel')})", file=file)
    for side in ("expected", "actual"):
        print(f"    {side + ':':<10}"
              f"{json.dumps(divergence.get(side), sort_keys=True)}", file=file)


def _nothing_verified(prog: str, path: str, n_logs: int) -> int:
    """Fail a ``--replay`` run that matched none of its logs."""
    print(f"{prog}: --replay {path}: no computed point matched any of "
          f"the {n_logs} loaded log(s); nothing was verified",
          file=sys.stderr)
    return 1


def _build_runner(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> SweepRunner:
    try:
        collectors = _collectors(args, parser)
    except ValueError as exc:
        raise SystemExit(f"repro-experiments: {exc}")
    if args.no_cache or args.replay:
        # A point served from the cache runs nothing to verify.
        cache = None
    else:
        cache = args.cache_dir or default_cache_dir()
    return SweepRunner(
        jobs=_jobs(args),
        cache=cache,
        timeout=args.timeout,
        telemetry=sys.stderr if args.progress else None,
        collectors=collectors,
    )


def _collector(runner: Optional[SweepRunner], cls: type) -> Any:
    """The runner's collector of type ``cls``, or None."""
    collectors = runner.collectors if runner is not None else ()
    return next((c for c in collectors if isinstance(c, cls)), None)


def _replay_matched_nothing(args: argparse.Namespace,
                            runner: SweepRunner) -> bool:
    """Whether ``--replay`` loaded logs but verified none of them (a
    grid whose labels match no log); reports it on stderr."""
    replay = _collector(runner, ReplayCollector)
    if replay is None or replay.docs:
        return False
    _nothing_verified("repro-experiments", args.replay, len(replay.logs))
    return True


def _open_text_output(path: str, what: str):
    """Open ``path`` for text writing; ``-`` yields stdout (not closed).

    A missing parent directory is created, as ``--trace DIR`` and
    ``--record DIR`` create theirs.  Every subcommand's writable-output
    option funnels through here so an unwritable path fails with one
    consistent message::

        repro-experiments: cannot write <what> <path>: <reason>
    """

    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        print(f"repro-experiments: cannot write {what} {path}: {exc}",
              file=sys.stderr)
        raise SystemExit(1)


def _write_obs_document(
    args: argparse.Namespace, runner: SweepRunner, quiet: bool = False
) -> Optional[str]:
    """Emit the single-run metrics document ``--obs FILE`` asked for.

    Returns the path written (for the JSON document's output map);
    ``quiet`` suppresses the stderr note so ``--json`` runs emit
    nothing but the document itself.  ``FILE`` may be ``-`` for
    stdout.  With ``--obs-sample`` the document also carries the
    per-point sampled series under ``"timeseries"``.
    """
    metrics = _collector(runner, MetricsCollector)
    if metrics is None:
        return None

    from .. import __version__

    doc = {
        "version": __version__,
        "obs": metrics.registry.snapshot(),
        "telemetry": runner.telemetry.summary(),
    }
    sampler = _collector(runner, SampleCollector)
    if sampler is not None and sampler.docs:
        doc["timeseries"] = sampler.docs
    # One write: json.dump would issue one per token.
    text = json.dumps(doc, indent=2)
    with _open_text_output(args.obs, "obs document") as fh:
        fh.write(text + "\n")
    if not quiet and args.obs != "-":
        print(f"wrote obs metrics to {args.obs}", file=sys.stderr)
    return args.obs


def _safe_label(label: str) -> str:
    """A point label flattened into a filesystem-safe file stem."""
    return re.sub(r"[^A-Za-z0-9._=-]+", "_", label)


def _write_label_files(
    directory: str, docs: Dict[str, Any], suffix: str, what: str,
    note: str, dump: Callable[[Any, str], None], quiet: bool,
) -> List[str]:
    """Write one ``<label><suffix>`` file per document into
    ``directory`` (``dump(doc, path)`` writes one); returns the paths
    written."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        print(f"repro-experiments: cannot write {what}s {directory}: {exc}",
              file=sys.stderr)
        raise SystemExit(1)
    paths: List[str] = []
    for label in sorted(docs):
        path = os.path.join(directory, f"{_safe_label(label)}{suffix}")
        try:
            dump(docs[label], path)
        except OSError as exc:
            print(f"repro-experiments: cannot write {what} {path}: {exc}",
                  file=sys.stderr)
            raise SystemExit(1)
        paths.append(path)
    if not quiet:
        print(f"wrote {len(paths)} {note} to {directory}", file=sys.stderr)
    return paths


def _write_outputs(
    args: argparse.Namespace, runner: SweepRunner, quiet: bool = False
) -> Dict[str, Any]:
    """Write the side documents the observation flags asked for; returns
    the JSON document's ``outputs`` map.

    ``--trace DIR`` gets one ``<label>.trace.json`` per computed point
    (``-`` streams ``{"label": ..., "trace": {...}}`` JSON lines to
    stdout instead) and ``--record DIR`` one ``<label>.order`` each.
    Both attachments arrive encoded (JSON text, base64 RRLG), so this
    only writes them out.
    """

    def dump_trace(text: str, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    def dump_order_log(doc: str, path: str) -> None:
        from ..compact.container import from_ascii

        with open(path, "wb") as fh:
            fh.write(from_ascii(doc))

    outputs: Dict[str, Any] = {}
    obs_path = _write_obs_document(args, runner, quiet=quiet)
    if obs_path:
        outputs["obs"] = obs_path
    tracer = _collector(runner, TraceCollector)
    if tracer is not None and args.trace == "-":
        for label in sorted(tracer.docs):
            sys.stdout.write(f'{{"label": {json.dumps(label)}, '
                             f'"trace": {tracer.docs[label]}}}\n')
        if tracer.docs:
            outputs["traces"] = ["-"]
    elif tracer is not None:
        paths = _write_label_files(
            args.trace, tracer.docs, ".trace.json", "trace document",
            "trace(s)", dump_trace, quiet)
        if paths:
            outputs["traces"] = paths
    recorder = _collector(runner, OrderCollector)
    if recorder is not None:
        paths = _write_label_files(
            args.record, recorder.docs, ".order", "order log",
            "order log(s)", dump_order_log, quiet)
        if paths:
            outputs["order_logs"] = paths
    return outputs


# -- the `sweep` subcommand -----------------------------------------------------


def _cpu_list(text: str) -> List[int]:
    return [positive_int(part) for part in text.split(",") if part]


def _str_list(text: str) -> List[str]:
    return [part for part in text.split(",") if part]


def sweep_main(argv: List[str]) -> int:
    """``repro-experiments sweep`` — run an ad-hoc (app x policy x CPUs)
    grid through the runner and print one row per point."""
    from ..apps import ALL_APPS, get_app
    from ..dynprof import POLICIES

    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep",
        description="Run an arbitrary (app x policy x CPU-count) grid "
                    "through the parallel sweep runner.",
    )
    parser.add_argument("--apps", type=_str_list, default=list(ALL_APPS),
                        metavar="A,B", help=f"applications (default: all of {','.join(ALL_APPS)})")
    parser.add_argument("--policies", type=_str_list, default=list(POLICIES),
                        metavar="P,Q", help=f"policies (default: all of {','.join(POLICIES)})")
    parser.add_argument("--cpus", type=_cpu_list, default=None, metavar="1,4,16",
                        help="CPU counts (default: each app's own counts)")
    parser.add_argument("--scale", type=positive_float, default=0.1,
                        help="workload scale factor (default 0.1)")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument("--machine", choices=sorted(MACHINES), default="power3-sp",
                        help="machine preset (default power3-sp)")
    parser.add_argument("--json", action="store_true",
                        help="print results as a JSON document")
    _add_runner_args(parser)
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 0:
        parser.error("--jobs must be >= 0")

    machine = get_machine(args.machine)
    points: List[SweepPoint] = []
    for name in args.apps:
        try:
            app = get_app(name)
        except KeyError as exc:
            parser.error(str(exc))
        cpus = args.cpus if args.cpus is not None else list(app.cpu_counts)
        # A name outside Table 3 is kept: its points fail and say why.
        points += [
            SweepPoint.policy_cell(app.name, policy, n, scale=args.scale,
                                   machine=machine, seed=args.seed)
            for policy in args.policies
            if policy in app.policies or policy not in POLICIES
            for n in cpus if n <= max(app.cpu_counts)
        ]
    if not points:
        print("sweep: empty grid", file=sys.stderr)
        return 2

    runner = _build_runner(args, parser)
    try:
        results = runner.run(points)
    finally:
        runner.close()
    ordered = [results[p] for p in points]

    outputs = _write_outputs(args, runner, quiet=args.json)
    for r in ordered:
        if r.status == "diverged" and r.divergence is not None:
            print(f"sweep: {r.point.label}: diverged from its replay log "
                  f"at decision #{r.divergence.get('index')} "
                  f"(t={r.divergence.get('sim_time')}, "
                  f"channel={r.divergence.get('channel')})",
                  file=sys.stderr)

    if args.json:
        doc = {
            "sweep": [
                {
                    "app": r.point.app,
                    "policy": r.point.policy,
                    "cpus": r.point.procs,
                    "status": r.status,
                    "cached": r.cached,
                    "payload": r.payload,
                }
                for r in ordered
            ],
            "telemetry": runner.telemetry.summary(),
        }
        if outputs:
            doc["outputs"] = outputs
        print(json.dumps(doc, indent=2))
    else:
        print(f"{'app':<9s} {'policy':<9s} {'cpus':>4s} {'status':>8s} "
              f"{'cached':>6s} {'time(s)':>10s}")
        print("-" * 52)
        for r in ordered:
            t = "-" if r.sim_time is None else f"{r.sim_time:.3f}"
            print(f"{r.point.app:<9s} {r.point.policy:<9s} "
                  f"{r.point.procs:>4d} {r.status:>8s} "
                  f"{str(r.cached).lower():>6s} {t:>10s}")
        s = runner.telemetry.summary()
        print(f"({s['ok']}/{s['total']} ok, {s['cached']} cached, "
              f"{s['failed']} failed, hit rate {s['hit_rate']:.0%})")
    if _replay_matched_nothing(args, runner):
        return 1
    return 0 if all(r.ok for r in ordered) else 1


# -- fault plans ----------------------------------------------------------------


def _add_faults_args(parser: argparse.ArgumentParser) -> None:
    from ..faults import CANNED_PLANS

    parser.add_argument("--faults", metavar="FILE", default=None,
                        help="run under the fault-injection plan in FILE "
                             "(JSON, see docs/faults.md); an empty plan "
                             "changes nothing")
    parser.add_argument("--plan", metavar="NAME", default=None,
                        choices=sorted(CANNED_PLANS),
                        help="run under a canned fault plan "
                             f"(one of {','.join(sorted(CANNED_PLANS))})")


def _load_fault_plan(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> Optional[FaultPlan]:
    """The plan ``--faults``/``--plan`` selected, or None."""
    from ..faults import FaultPlan, canned_plan

    if args.faults and args.plan:
        parser.error("--faults and --plan are mutually exclusive")
    if args.plan:
        return canned_plan(args.plan)
    if args.faults:
        try:
            return FaultPlan.from_file(args.faults)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.error(f"--faults {args.faults}: {exc}")
    return None


# -- the `trace compact` subcommand ---------------------------------------------


def _compact_inputs(paths: List[str], suffixes: tuple) -> List[str]:
    """Expand files/directories into trace files with given suffixes."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for entry in sorted(os.listdir(path)):
                if entry.endswith(suffixes):
                    found.append(os.path.join(path, entry))
        else:
            found.append(path)
    return found


def trace_compact_main(argv: List[str]) -> int:
    """``repro-experiments trace compact`` — compress, decompress or
    inspect on-disk trace files (VGVTRACE text <-> VGVZ binary)."""

    from ..compact.codec import CompactReader, compress_trace_bytes
    from ..vt import load_trace, save_trace, save_trace_compact

    parser = argparse.ArgumentParser(
        prog="repro-experiments trace compact",
        description="Streaming trace compaction: convert VGVTRACE text "
                    "files (save_trace) to/from the compact VGVZ binary "
                    "format, or report compression statistics.  The "
                    "round trip is lossless, record for record.",
    )
    parser.add_argument("action", choices=("compress", "decompress", "stats"),
                        help="compress text->VGVZ, decompress VGVZ->text, "
                             "or report per-file compaction statistics")
    parser.add_argument("paths", nargs="+", metavar="PATH",
                        help="trace files, or directories to scan "
                             "(*.vgv/*.trace for compress, *.vgvz for "
                             "decompress, both for stats)")
    parser.add_argument("--out-dir", metavar="DIR", default=None,
                        help="write outputs here instead of next to inputs")
    parser.add_argument("--no-suppress", action="store_true",
                        help="disable repeat suppression (keep only the "
                             "delta/varint framing) when compressing")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON document instead of a table")
    args = parser.parse_args(argv)

    text_suffixes = (".vgv", ".trace", ".txt")
    if args.action == "compress":
        suffixes: tuple = text_suffixes
    elif args.action == "decompress":
        suffixes = (".vgvz",)
    else:
        suffixes = text_suffixes + (".vgvz",)
    inputs = _compact_inputs(args.paths, suffixes)
    if not inputs:
        print("trace compact: no trace files found", file=sys.stderr)
        return 2

    def _out_path(src: str, new_suffix: str) -> str:
        stem = os.path.basename(src)
        for sfx in text_suffixes + (".vgvz",):
            if stem.endswith(sfx):
                stem = stem[: -len(sfx)]
                break
        directory = args.out_dir or os.path.dirname(src) or "."
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
        return os.path.join(directory, stem + new_suffix)

    rows: List[dict] = []
    for src in inputs:
        try:
            if args.action == "compress":
                trace = load_trace(src)
                dst = _out_path(src, ".vgvz")
                stats = save_trace_compact(trace, dst,
                                           suppress=not args.no_suppress)
                row = {"file": src, "out": dst, **stats.to_dict(),
                       "text_bytes": os.path.getsize(src)}
            elif args.action == "decompress":
                reader = CompactReader.from_file(src)
                trace = reader.read_trace()
                dst = _out_path(src, ".vgv")
                save_trace(trace, dst)
                row = {"file": src, "out": dst,
                       "raw_records": trace.raw_record_count,
                       "model_bytes": trace.size_bytes,
                       "compact_bytes": os.path.getsize(src)}
            else:
                if src.endswith(".vgvz"):
                    reader = CompactReader.from_file(src)
                    trace = reader.read_trace()
                    compact_size = os.path.getsize(src)
                else:
                    trace = load_trace(src)
                    data, _stats = compress_trace_bytes(
                        trace, suppress=not args.no_suppress)
                    compact_size = len(data)
                model = trace.size_bytes
                row = {
                    "file": src,
                    "raw_records": trace.raw_record_count,
                    "model_bytes": model,
                    "compact_bytes": compact_size,
                    "bytes_per_record": round(
                        compact_size / trace.raw_record_count, 3
                    ) if trace.raw_record_count else 0.0,
                    "ratio": round(model / compact_size, 2)
                    if compact_size else 0.0,
                }
        except (OSError, ValueError) as exc:
            print(f"trace compact: {src}: {exc}", file=sys.stderr)
            return 1
        rows.append(row)

    if args.json:
        print(json.dumps({"action": args.action, "files": rows}, indent=2))
        return 0
    for row in rows:
        parts = [row["file"]]
        if "out" in row:
            parts.append(f"-> {row['out']}")
        parts.append(f"{row['raw_records']:,} records")
        parts.append(f"model {row['model_bytes']:,} B")
        if "compact_bytes" in row:
            parts.append(f"compact {row['compact_bytes']:,} B")
        if "ratio" in row:
            parts.append(f"x{row['ratio']:.1f}")
        print("  ".join(str(p) for p in parts))
    return 0


# -- the `trace` subcommand -----------------------------------------------------


def trace_main(argv: List[str]) -> int:
    """``repro-experiments trace`` — run one (app, policy, CPUs) point
    with causal tracing on and print its critical-path / perturbation
    summary."""
    if argv and argv[0] == "compact":
        return trace_compact_main(argv[1:])
    from ..apps import ALL_APPS, get_app
    from ..dynprof import POLICIES
    from ..obs.analysis import render_trace_summary
    from ..obs.export import save_trace_svg, write_chrome_trace
    from ..runner.worker import execute_point

    parser = argparse.ArgumentParser(
        prog="repro-experiments trace",
        description="Trace one simulated run: per-track utilization, the "
                    "critical path through spans and causal flow edges, "
                    "and the instrumentation-perturbation breakdown.",
    )
    parser.add_argument("--app", default="smg98",
                        help=f"application (one of {','.join(ALL_APPS)}; "
                             "default smg98)")
    parser.add_argument("--policy", default="Dynamic",
                        help=f"instrumentation policy (one of "
                             f"{','.join(POLICIES)}; default Dynamic)")
    parser.add_argument("--cpus", type=positive_int, default=4,
                        help="process count (default 4)")
    parser.add_argument("--scale", type=positive_float, default=0.1,
                        help="workload scale factor (default 0.1)")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument("--machine", choices=sorted(MACHINES),
                        default="power3-sp",
                        help="machine preset (default power3-sp)")
    parser.add_argument("--detail", choices=("fine", "coarse"),
                        default="fine", help="trace detail level")
    parser.add_argument("--capacity", type=positive_int,
                        default=DEFAULT_TRACE_CAPACITY, metavar="N",
                        help="per-track ring-buffer bound "
                             f"(default {DEFAULT_TRACE_CAPACITY})")
    parser.add_argument("--compact", action="store_true",
                        help="fold repeated event subsequences when a ring "
                             "fills instead of dropping immediately")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="also write the raw trace document (JSON)")
    parser.add_argument("--chrome", metavar="FILE", default=None,
                        help="also export Chrome trace-event JSON "
                             "(chrome://tracing / Perfetto)")
    parser.add_argument("--svg", metavar="FILE", default=None,
                        help="also render a static SVG timeline")
    parser.add_argument("--vgv", metavar="FILE", default=None,
                        help="also save the postmortem VT trace as a "
                             "VGVTRACE text file (see `trace compact`)")
    parser.add_argument("--vgvz", metavar="FILE", default=None,
                        help="also save the postmortem VT trace in the "
                             "compact VGVZ binary format")
    parser.set_defaults(kind="policy")
    args = parser.parse_args(argv)
    point = _point_from_args(args, parser)
    tracer = TraceCollector(detail=args.detail, capacity=args.capacity,
                            compact=args.compact)
    envelope = execute_point(point, collectors=[tracer])
    if envelope["status"] != "ok":
        print(f"repro-experiments trace: {point.label}: "
              f"{envelope.get('error', envelope['status'])}",
              file=sys.stderr)
        return 1
    text = envelope["attachments"][tracer.name]
    doc = json.loads(text)
    elapsed = envelope["payload"].get("time")

    if args.vgv or args.vgvz:
        # The postmortem VT TraceFile never travels through the worker
        # envelope, so re-run the (deterministic) point in-process.
        from ..dynprof import run_policy_job
        from ..vt import save_trace, save_trace_compact

        _result, job = run_policy_job(
            get_app(args.app), args.policy, args.cpus,
            scale=args.scale, machine=get_machine(args.machine),
            seed=args.seed,
        )
        if args.vgv:
            save_trace(job.trace, args.vgv)
            print(f"wrote VGVTRACE text to {args.vgv}", file=sys.stderr)
        if args.vgvz:
            stats = save_trace_compact(job.trace, args.vgvz)
            print(f"wrote VGVZ trace to {args.vgvz} "
                  f"({stats.raw_records:,} records, "
                  f"{stats.compact_bytes:,} B, x{stats.ratio:.1f} vs the "
                  f"volume model)", file=sys.stderr)

    if args.out:
        with _open_text_output(args.out, "trace document") as fh:
            fh.write(text + "\n")
        if args.out != "-":
            print(f"wrote trace document to {args.out}", file=sys.stderr)
    if args.chrome:
        write_chrome_trace(doc, args.chrome)
        print(f"wrote Chrome trace to {args.chrome}", file=sys.stderr)
    if args.svg:
        save_trace_svg(doc, args.svg,
                       title=f"{args.app} {args.policy} @{args.cpus}")
        print(f"wrote SVG timeline to {args.svg}", file=sys.stderr)

    folded = doc.get("folded_events", 0)
    folded_note = f", folded={folded}" if folded else ""
    print(f"trace: {point.label} (detail={args.detail}, "
          f"dropped={doc['dropped_events']}{folded_note})")
    print()
    print(render_trace_summary(doc, elapsed=elapsed))
    return 0


# -- the `chaos` subcommand -----------------------------------------------------


def _add_point_args(parser: argparse.ArgumentParser) -> None:
    """The one-point options of ``chaos`` and ``replay bisect``."""
    from ..apps import ALL_APPS

    parser.add_argument("--kind", choices=("instrument", "policy"),
                        default="instrument",
                        help="point kind: 'instrument' = a Figure 9 cell "
                             "(default), 'policy' = a Figure 7 cell")
    parser.add_argument("--app", default="sweep3d",
                        help=f"application (one of {','.join(ALL_APPS)}; "
                             "default sweep3d)")
    parser.add_argument("--policy", default="Dynamic",
                        help="instrumentation policy for --kind policy "
                             "(default Dynamic)")
    parser.add_argument("--cpus", type=positive_int, default=32,
                        help="process count (default 32: spans several "
                             "nodes, so node-level faults bite)")
    parser.add_argument("--scale", type=positive_float, default=0.02,
                        help="workload scale factor (default 0.02)")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument("--machine", choices=sorted(MACHINES),
                        default="power3-sp",
                        help="machine preset (default power3-sp)")


def _point_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser,
    faults: Optional[FaultPlan] = None,
) -> SweepPoint:
    """The point :func:`_add_point_args` (or ``trace``'s options)
    describes, under ``faults``."""
    from ..apps import get_app
    from ..dynprof import POLICIES

    try:
        get_app(args.app)
    except KeyError as exc:
        parser.error(str(exc))
    if args.policy not in POLICIES:
        parser.error(f"unknown policy {args.policy!r}; known: "
                     f"{','.join(POLICIES)}")
    common = dict(scale=args.scale, machine=get_machine(args.machine),
                  seed=args.seed, faults=faults)
    if args.kind == "policy":
        return SweepPoint.policy_cell(args.app, args.policy, args.cpus,
                                      **common)
    return SweepPoint.instrument(args.app, args.cpus, **common)


def chaos_main(argv: List[str]) -> int:
    """``repro-experiments chaos`` — run one simulated point under a
    fault-injection plan and report the recovery outcome (quarantined
    ranks, coverage, injected-fault counts)."""
    from ..runner.worker import execute_point

    parser = argparse.ArgumentParser(
        prog="repro-experiments chaos",
        description="Run one (app, policy/instrument, CPUs) point under "
                    "a deterministic fault-injection plan; the tool "
                    "degrades gracefully (quarantine + partial coverage) "
                    "instead of failing.",
    )
    _add_point_args(parser)
    parser.add_argument("--check-determinism", action="store_true",
                        help="run the point twice and fail unless both "
                             "payloads are bit-identical")
    parser.add_argument("--json", action="store_true",
                        help="print the payload as a JSON document")
    parser.add_argument("--obs", metavar="FILE", default=None,
                        help="collect simulator metrics during the run and "
                             "write them as a JSON document to FILE "
                             "('-' = stdout)")
    parser.add_argument("--obs-sample", type=positive_float, default=None,
                        metavar="SEC",
                        help="sample the metrics registry every SEC "
                             "simulated seconds; the series ride the "
                             "--obs document")
    parser.add_argument("--record", metavar="FILE", default=None,
                        help="record the run's nondeterminism order log to "
                             "FILE (replay it later with `replay verify` "
                             "or --replay)")
    parser.add_argument("--replay", metavar="FILE", default=None,
                        help="verify the run against a recorded order log; "
                             "divergence fails with a first-divergence "
                             "report")
    _add_faults_args(parser)
    args = parser.parse_args(argv)
    try:
        collectors = _collectors(args, parser)
    except ValueError as exc:
        print(f"repro-experiments chaos: {exc}", file=sys.stderr)
        return 1

    plan = _load_fault_plan(args, parser)
    if plan is None:
        from ..faults import canned_plan

        plan = canned_plan("daemon-crash-attach")
    point = _point_from_args(args, parser, faults=plan)

    replay = next((c for c in collectors if isinstance(c, ReplayCollector)),
                  None)
    if replay is not None and point.label not in replay.logs:
        return _nothing_verified("repro-experiments chaos", args.replay,
                                 len(replay.logs))

    # No cache: the whole purpose is to exercise the recovery paths,
    # and --check-determinism needs two real executions.
    runs = 2 if args.check_determinism else 1
    envelopes = [
        execute_point(point, collectors=collectors) for _ in range(runs)
    ]
    attachments = envelopes[0].get("attachments", {})
    for envelope in envelopes:
        if envelope["status"] == "diverged":
            print(f"chaos: {point.label}: DIVERGED from {args.replay}",
                  file=sys.stderr)
            _print_divergence(envelope["divergence"], file=sys.stderr)
            return 1
        if envelope["status"] != "ok":
            print(f"repro-experiments chaos: {point.label}: "
                  f"{envelope.get('error', envelope['status'])}",
                  file=sys.stderr)
            return 1

    if args.record:
        from ..compact.container import from_ascii

        try:
            with open(args.record, "wb") as fh:
                fh.write(from_ascii(attachments[OrderCollector.name]))
        except OSError as exc:
            print(f"repro-experiments chaos: cannot write order log "
                  f"{args.record}: {exc}", file=sys.stderr)
            return 1
        if not args.json:
            print(f"wrote order log to {args.record}", file=sys.stderr)

    payloads = [e["payload"] for e in envelopes]
    if args.check_determinism:
        blobs = [json.dumps(p, sort_keys=True) for p in payloads]
        if blobs[0] != blobs[1]:
            print("chaos: NON-DETERMINISTIC: two runs of "
                  f"{point.label} under the same plan and seed differ",
                  file=sys.stderr)
            return 1

    if args.obs:
        from .. import __version__

        obs_doc = {
            "version": __version__,
            "point": point.canonical(),
            "obs": attachments.get(MetricsCollector.name, {}),
        }
        if attachments.get(SampleCollector.name):
            obs_doc["timeseries"] = {
                point.label: attachments[SampleCollector.name]}
        with _open_text_output(args.obs, "obs document") as fh:
            json.dump(obs_doc, fh, indent=2)
            fh.write("\n")
        if not args.json and args.obs != "-":
            print(f"wrote obs metrics to {args.obs}", file=sys.stderr)

    payload = payloads[0]
    report = payload.get("faults") or {}
    if args.json:
        doc = {
            "point": point.canonical(),
            "plan": plan.to_dict(),
            "payload": payload,
        }
        if args.check_determinism:
            doc["deterministic"] = True
        print(json.dumps(doc, indent=2))
        return 0

    print(f"chaos: {point.label} under plan "
          f"({len(plan)} spec(s){': ' + plan.note if plan.note else ''})")
    if "time" in payload:
        print(f"  time: {payload['time']:.4f} s (simulated)")
    quarantined = report.get("quarantined_ranks", [])
    coverage = report.get("coverage")
    print(f"  quarantined ranks: {quarantined if quarantined else 'none'}")
    if coverage is not None:
        print(f"  coverage: {coverage:.0%} of ranks instrumented")
    injected = report.get("injected") or {}
    if injected:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(injected.items()))
        print(f"  injected: {pairs}")
    else:
        print("  injected: none (plan never fired at this scale)")
    if report.get("client_retries"):
        print(f"  dpcl client retries: {report['client_retries']}")
    if args.check_determinism:
        print("  determinism: OK (two runs bit-identical)")
    if args.replay:
        print(f"  replay: OK (bit-identical to {args.replay})")
    return 0


def _render_items(
    items: List[ExperimentOutput],
    args: argparse.Namespace,
    json_items: List[dict],
    csv_chunks: List[str],
) -> None:
    for item in items:
        if isinstance(item, str):
            if args.json:
                json_items.append({"type": "text", "text": item})
            else:
                print(item)
        else:
            # Anything figure-like: FigureResult, OverheadTimeline, …
            # — the render/to_csv/to_dict trio is the contract.
            csv_chunks.append(item.to_csv())
            if args.json:
                json_items.append({"type": "figure", **item.to_dict()})
            else:
                print(item.render())


# -- entry point ----------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "chaos":
        return chaos_main(argv[1:])
    if argv and argv[0] == "replay":
        from .replaycmd import replay_main

        return replay_main(argv[1:])
    if argv and argv[0] == "obs":
        from .obscmd import obs_main

        return obs_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of 'Dynamic "
                    "Instrumentation of Large-Scale MPI and OpenMP "
                    "Applications' (IPPS 2003).  Use the `sweep` "
                    "subcommand for ad-hoc grids.",
    )
    parser.add_argument("experiments", nargs="+", choices=EXPERIMENTS,
                        help="which tables/figures to regenerate")
    parser.add_argument("--scale", type=positive_float, default=0.1,
                        help="workload scale factor (default 0.1; 1.0 "
                             "reproduces paper-magnitude runtimes)")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument("--quick", action="store_true",
                        help="cap process counts for a fast smoke run")
    parser.add_argument("--csv", metavar="FILE",
                        help="also dump figure data as CSV to FILE")
    parser.add_argument("--json", action="store_true",
                        help="print results as one JSON document on stdout "
                             "instead of rendered text")
    _add_runner_args(parser)
    _add_faults_args(parser)
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 0:
        parser.error("--jobs must be >= 0")
    fault_plan = _load_fault_plan(args, parser)

    runner = _build_runner(args, parser)
    json_items: List[dict] = []
    csv_chunks: List[str] = []
    try:
        for name in args.experiments:
            try:
                items = run_experiment(name, args.scale, args.seed, args.quick,
                                       runner=runner, faults=fault_plan)
            except SweepError as exc:
                print(f"repro-experiments: {name}: {exc}", file=sys.stderr)
                return 1
            _render_items(items, args, json_items, csv_chunks)
    finally:
        runner.close()
    outputs = _write_outputs(args, runner, quiet=args.json)
    if args.json:
        doc = {"results": json_items,
               "telemetry": runner.telemetry.summary()}
        if outputs:
            doc["outputs"] = outputs
        print(json.dumps(doc, indent=2))
    if args.csv and csv_chunks:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(csv_chunks))
        if not args.json:
            print(f"wrote CSV to {args.csv}", file=sys.stderr)
    return 1 if _replay_matched_nothing(args, runner) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
