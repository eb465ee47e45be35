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

Every command is one row of :data:`COMMANDS`, and every option is
declared once in :data:`OPTIONS`: a row names the options it takes,
its own defaults and its handler, and an invocation builds only the
parser of the row it selects.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from importlib import import_module
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, Union)

from ..cliargs import POINT, help_formatter, positive_float, positive_int
from ..cluster import get_machine
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


# -- output files -----------------------------------------------------------------


def _write_output(path: str, what: str,
                  data: Union[str, bytes, Callable[[str], Any]],
                  dash: bool = False) -> Any:
    """Write ``data`` to ``path``: text, bytes, or a function that writes
    the file at the path it is given (its result is returned).

    Every option that names an output file writes through here.  A
    missing parent directory is created, and an unwritable path fails
    with one line and exit status 1::

        repro-experiments: cannot write <what> <path>: <reason>

    With ``dash`` (the options whose ``-`` means stdout), ``-`` writes
    the text to stdout.
    """
    if dash and path == "-":
        sys.stdout.write(data)  # type: ignore[arg-type]
        return None
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if callable(data):
            return data(path)
        binary = isinstance(data, bytes)
        with open(path, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as fh:
            fh.write(data)
    except OSError as exc:
        print(f"repro-experiments: cannot write {what} {path}: {exc}",
              file=sys.stderr)
        raise SystemExit(1)


def _write_obs(args: argparse.Namespace, quiet: bool, **fields: Any) -> str:
    """Write the metrics document ``--obs FILE`` asked for: the version,
    then each of ``fields`` that is not None.  Returns the path, for the
    JSON document's output map; ``quiet`` (``--json`` runs) suppresses
    the stderr note.  ``FILE`` may be ``-`` for stdout."""
    from .. import __version__

    doc = {"version": __version__,
           **{key: value for key, value in fields.items() if value is not None}}
    # One write: json.dump would issue one per token.
    _write_output(args.obs, "obs document", json.dumps(doc, indent=2) + "\n",
                  dash=True)
    if not quiet and args.obs != "-":
        print(f"wrote obs metrics to {args.obs}", file=sys.stderr)
    return args.obs


def _safe_label(label: str) -> str:
    """A point label flattened into a filesystem-safe file stem."""
    return re.sub(r"[^A-Za-z0-9._=-]+", "_", label)


def _write_label_files(
    directory: str, docs: Dict[str, Any], suffix: str, what: str,
    note: str, encode: Callable[[Any], Union[str, bytes]], quiet: bool,
) -> List[str]:
    """Write one ``<label><suffix>`` file per document into
    ``directory`` (``encode(doc)`` is its content); returns the paths
    written."""
    _write_output(directory, what + "s",
                  lambda path: os.makedirs(path, exist_ok=True))
    paths: List[str] = []
    for label in sorted(docs):
        path = os.path.join(directory, f"{_safe_label(label)}{suffix}")
        _write_output(path, what, encode(docs[label]))
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
    from ..compact.container import from_ascii

    outputs: Dict[str, Any] = {}
    metrics = _collector(runner, MetricsCollector)
    if metrics is not None:
        # With --obs-sample the document carries each point's series.
        sampler = _collector(runner, SampleCollector)
        outputs["obs"] = _write_obs(
            args, quiet, obs=metrics.registry.snapshot(),
            telemetry=runner.telemetry.summary(),
            timeseries=sampler.docs if sampler is not None and sampler.docs
            else None)
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
            "trace(s)", lambda text: text + "\n", quiet)
        if paths:
            outputs["traces"] = paths
    recorder = _collector(runner, OrderCollector)
    if recorder is not None:
        paths = _write_label_files(
            args.record, recorder.docs, ".order", "order log",
            "order log(s)", from_ascii, quiet)
        if paths:
            outputs["order_logs"] = paths
    return outputs


def _print_document(key: str, items: List[Any], runner: SweepRunner,
                    outputs: Dict[str, Any]) -> None:
    """A grid command's ``--json`` document: its items under ``key``,
    the runner's telemetry and the side files written."""
    doc = {key: items, "telemetry": runner.telemetry.summary()}
    if outputs:
        doc["outputs"] = outputs
    print(json.dumps(doc, indent=2))


# -- fault plans and single points ------------------------------------------------


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


def _point(
    args: argparse.Namespace, parser: argparse.ArgumentParser,
    faults: Optional[FaultPlan] = None,
) -> SweepPoint:
    """The point the point options describe, under ``faults``: the one
    point of ``trace``, ``chaos`` and ``replay bisect``."""
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


def _run_point(command: str, point: SweepPoint, collectors: List[Collector],
               runs: int = 1, replay: Optional[str] = None
               ) -> Optional[List[Dict[str, Any]]]:
    """Run ``point`` in-process ``runs`` times, without the cache; the
    envelopes, or None once the first run that failed is reported on
    stderr (a divergence from the ``--replay`` log, or an error)."""
    from ..runner.worker import execute_point

    envelopes = [execute_point(point, collectors=collectors)
                 for _ in range(runs)]
    for envelope in envelopes:
        if envelope["status"] == "diverged":
            print(f"{command}: {point.label}: DIVERGED from {replay}",
                  file=sys.stderr)
            _print_divergence(envelope["divergence"], file=sys.stderr)
            return None
        if envelope["status"] != "ok":
            print(f"repro-experiments {command}: {point.label}: "
                  f"{envelope.get('error', envelope['status'])}",
                  file=sys.stderr)
            return None
    return envelopes


# -- command handlers: each takes the parsed arguments and its parser -------------


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


def _figures(args: argparse.Namespace,
             parser: argparse.ArgumentParser) -> int:
    """The experiment ids: regenerate tables and figures."""
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
        _print_document("results", json_items, runner, outputs)
    if args.csv and csv_chunks:
        _write_output(args.csv, "CSV", "\n".join(csv_chunks))
        if not args.json:
            print(f"wrote CSV to {args.csv}", file=sys.stderr)
    return 1 if _replay_matched_nothing(args, runner) else 0


def _cpu_list(text: str) -> List[int]:
    return [positive_int(part) for part in text.split(",") if part]


def _str_list(text: str) -> List[str]:
    return [part for part in text.split(",") if part]


def _sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``sweep``: run an ad-hoc (app x policy x CPUs) grid through the
    runner and print one row per point."""
    from ..apps import get_app
    from ..dynprof import POLICIES

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
        _print_document("sweep", [
            {"app": r.point.app, "policy": r.point.policy,
             "cpus": r.point.procs, "status": r.status, "cached": r.cached,
             "payload": r.payload}
            for r in ordered], runner, outputs)
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


def _trace_compact(args: argparse.Namespace,
                   parser: argparse.ArgumentParser) -> int:
    """``trace compact``: compress, decompress or inspect on-disk trace
    files (VGVTRACE text <-> VGVZ binary)."""
    from ..compact.codec import CompactReader, compress_trace_bytes
    from ..vt import load_trace, save_trace, save_trace_compact

    text_suffixes = (".vgv", ".trace", ".txt")
    suffixes = {"compress": text_suffixes, "decompress": (".vgvz",)}.get(
        args.action, text_suffixes + (".vgvz",))
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
        row: Dict[str, Any] = {"file": src}
        try:
            if args.action == "decompress" or (
                    args.action == "stats" and src.endswith(".vgvz")):
                trace = CompactReader.from_file(src).read_trace()
                compact_size = os.path.getsize(src)
            else:
                trace = load_trace(src)
            if args.action == "compress":
                row["out"] = _out_path(src, ".vgvz")
                stats = save_trace_compact(trace, row["out"],
                                           suppress=not args.no_suppress)
                row.update(stats.to_dict(), text_bytes=os.path.getsize(src))
            elif args.action == "decompress":
                row["out"] = _out_path(src, ".vgv")
                save_trace(trace, row["out"])
            elif not src.endswith(".vgvz"):
                data, _stats = compress_trace_bytes(
                    trace, suppress=not args.no_suppress)
                compact_size = len(data)
        except (OSError, ValueError) as exc:
            print(f"trace compact: {src}: {exc}", file=sys.stderr)
            return 1
        if args.action != "compress":
            records, model = trace.raw_record_count, trace.size_bytes
            row.update(raw_records=records, model_bytes=model,
                       compact_bytes=compact_size)
        if args.action == "stats":
            row["bytes_per_record"] = (round(compact_size / records, 3)
                                       if records else 0.0)
            row["ratio"] = round(model / compact_size, 2) if compact_size \
                else 0.0
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


def _trace(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``trace``: run one (app, policy, CPUs) point with causal tracing
    on and print its critical-path / perturbation summary."""
    from ..obs.analysis import render_trace_summary
    from ..obs.export import save_trace_svg, write_chrome_trace

    point = _point(args, parser)
    tracer = TraceCollector(detail=args.detail, capacity=args.capacity,
                            compact=args.compact)
    envelopes = _run_point("trace", point, [tracer])
    if envelopes is None:
        return 1
    text = envelopes[0]["attachments"][tracer.name]
    doc = json.loads(text)
    elapsed = envelopes[0]["payload"].get("time")

    if args.vgv or args.vgvz:
        # The postmortem VT TraceFile never travels through the worker
        # envelope, so re-run the (deterministic) point in-process.
        from ..apps import get_app
        from ..dynprof import run_policy_job
        from ..vt import save_trace, save_trace_compact

        _result, job = run_policy_job(
            get_app(args.app), args.policy, args.cpus,
            scale=args.scale, machine=get_machine(args.machine),
            seed=args.seed,
        )
        if args.vgv:
            _write_output(args.vgv, "VGVTRACE text",
                          lambda path: save_trace(job.trace, path))
            print(f"wrote VGVTRACE text to {args.vgv}", file=sys.stderr)
        if args.vgvz:
            stats = _write_output(
                args.vgvz, "VGVZ trace",
                lambda path: save_trace_compact(job.trace, path))
            print(f"wrote VGVZ trace to {args.vgvz} "
                  f"({stats.raw_records:,} records, "
                  f"{stats.compact_bytes:,} B, x{stats.ratio:.1f} vs the "
                  f"volume model)", file=sys.stderr)

    if args.out:
        _write_output(args.out, "trace document", text + "\n", dash=True)
        if args.out != "-":
            print(f"wrote trace document to {args.out}", file=sys.stderr)
    if args.chrome:
        _write_output(args.chrome, "Chrome trace",
                      lambda path: write_chrome_trace(doc, path))
        print(f"wrote Chrome trace to {args.chrome}", file=sys.stderr)
    if args.svg:
        title = f"{args.app} {args.policy} @{args.cpus}"
        _write_output(args.svg, "SVG timeline",
                      lambda path: save_trace_svg(doc, path, title=title))
        print(f"wrote SVG timeline to {args.svg}", file=sys.stderr)

    folded = doc.get("folded_events", 0)
    folded_note = f", folded={folded}" if folded else ""
    print(f"trace: {point.label} (detail={args.detail}, "
          f"dropped={doc['dropped_events']}{folded_note})")
    print()
    print(render_trace_summary(doc, elapsed=elapsed))
    return 0


def _chaos(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``chaos``: run one simulated point under a fault-injection plan
    and report the recovery outcome (quarantined ranks, coverage,
    injected-fault counts)."""
    try:
        collectors = _collectors(args, parser)
    except ValueError as exc:
        print(f"repro-experiments chaos: {exc}", file=sys.stderr)
        return 1

    plan = _load_fault_plan(args, parser)
    if plan is None:
        from ..faults import canned_plan

        plan = canned_plan("daemon-crash-attach")
    point = _point(args, parser, faults=plan)

    replay = next((c for c in collectors if isinstance(c, ReplayCollector)),
                  None)
    if replay is not None and point.label not in replay.logs:
        return _nothing_verified("repro-experiments chaos", args.replay,
                                 len(replay.logs))

    # No cache: the whole purpose is to exercise the recovery paths,
    # and --check-determinism needs two real executions.
    envelopes = _run_point("chaos", point, collectors,
                           runs=2 if args.check_determinism else 1,
                           replay=args.replay)
    if envelopes is None:
        return 1
    attachments = envelopes[0].get("attachments", {})

    if args.record:
        from ..compact.container import from_ascii

        _write_output(args.record, "order log",
                      from_ascii(attachments[OrderCollector.name]))
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
        samples = attachments.get(SampleCollector.name)
        _write_obs(args, args.json, point=point.canonical(),
                   obs=attachments.get(MetricsCollector.name, {}),
                   timeseries={point.label: samples} if samples else None)

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


# -- the option table and the command table ----------------------------------------


class _Late:
    """``then(module.name)``, ``module`` relative to this package: a table
    value imported only when a parser is built or a handler runs."""

    def __init__(self, module: str, name: str,
                 then: Callable[[Any], Any] = lambda value: value) -> None:
        self.module, self.name, self.then = module, name, then

    def get(self) -> Any:
        return self.then(getattr(import_module(self.module, __package__),
                                 self.name))


def _now(value: Any) -> Any:
    return value.get() if isinstance(value, _Late) else value


#: Worker pool, cache, time budget and telemetry of the grid commands.
RUNNER: Dict[str, Dict[str, Any]] = {
    "--jobs": dict(type=int, metavar="N",
                   help="worker processes for the sweep grids "
                        "(default 0 = one per CPU; 1 = in-process, also "
                        "the default under a profiler)"),
    "--cache-dir": dict(metavar="DIR",
                        help="content-addressed result cache location "
                             "(default $REPRO_CACHE_DIR, else "
                             "~/.cache/repro/sweep)"),
    "--no-cache": dict(action="store_true",
                       help="disable the on-disk result cache"),
    "--timeout": dict(type=positive_float, metavar="SEC",
                      help="wall-clock budget per point run, in seconds"),
    "--progress": dict(action="store_true",
                       help="stream JSON-lines sweep telemetry to stderr"),
}

#: The causal tracer's settings: ``trace`` takes them as they are, the
#: grid commands as ``--trace-detail``, ``--trace-capacity`` and
#: ``--trace-compact``.
TRACER: Dict[str, Dict[str, Any]] = {
    "--detail": dict(choices=("fine", "coarse"), default="fine",
                     help="trace detail: 'fine' includes per-function "
                          "spans, 'coarse' subsystem events only "
                          "(default %(default)s)"),
    "--capacity": dict(type=positive_int, default=DEFAULT_TRACE_CAPACITY,
                       metavar="N",
                       help="per-track trace ring-buffer bound in events "
                            "(default %(default)s; evictions are counted, "
                            "not silent)"),
    "--compact": dict(action="store_true",
                      help="fold repeated event subsequences when a trace "
                           "ring fills instead of dropping immediately "
                           "(repro.compact)"),
}

#: What a run collects besides its outputs (metrics, sampled series,
#: traces, order logs) or verifies against (recorded logs); figure
#: outputs are the same with or without them.
COLLECTORS: Dict[str, Dict[str, Any]] = {
    "--obs": dict(metavar="FILE",
                  help="collect simulator metrics (events, messages, "
                       "trace records, probe patches) per computed point "
                       "and write one merged JSON document to FILE "
                       "('-' = stdout)"),
    "--obs-sample": dict(type=positive_float, metavar="SEC",
                         help="sample the metrics registry every SEC "
                              "simulated seconds into per-metric time "
                              "series (riding the --obs document)"),
    "--trace": dict(metavar="DIR",
                    help="collect a causal trace per computed point and "
                         "write one <label>.trace.json each into DIR "
                         "('-' = JSON lines on stdout)"),
    **{"--trace-" + flag[2:]: kwargs for flag, kwargs in TRACER.items()},
    "--record": dict(metavar="DIR",
                     help="record every computed point's nondeterminism "
                          "order log and write one <label>.order file "
                          "each into DIR (repro.replay)"),
    "--replay": dict(metavar="PATH",
                     help="re-run points against recorded order logs "
                          "(PATH: one .order file or a directory of them, "
                          "matched by point label; the cache is not "
                          "used); divergence fails the point with a "
                          "first-divergence report, and a replay that "
                          "verifies no log fails the run"),
}

#: Fault injection (docs/faults.md).
FAULTS: Dict[str, Dict[str, Any]] = {
    "--faults": dict(metavar="FILE",
                     help="run under the fault-injection plan in FILE "
                          "(JSON, see docs/faults.md); an empty plan "
                          "changes nothing"),
    "--plan": dict(metavar="NAME",
                   choices=_Late("..faults", "CANNED_PLANS", sorted),
                   help="run under a canned fault plan (one of "
                        "%(choices)s)"),
}

#: Machine-readable output.
OUTPUT: Dict[str, Dict[str, Any]] = {
    "--json": dict(action="store_true",
                   help="print the result as one JSON document on stdout "
                        "instead of text"),
    "--csv": dict(metavar="FILE", help="also dump figure data as CSV to FILE"),
}

#: Every shared option, declared once by its flag.
OPTIONS: Dict[str, Dict[str, Any]] = {
    **POINT, **RUNNER, **TRACER, **COLLECTORS, **FAULTS, **OUTPUT}

#: An option only one command takes: its flag and ``add_argument``
#: keyword arguments, given in the command's row.
Own = Tuple[str, Dict[str, Any]]

Handler = Callable[[argparse.Namespace, argparse.ArgumentParser], int]


class Command:
    """One row of :data:`COMMANDS`.

    ``name`` is the words that select the command (empty for the
    experiment ids); ``options`` its arguments in order, each a flag of
    :data:`OPTIONS` or an :data:`Own` declaration; ``defaults`` its own
    defaults (``set_defaults``); ``handler(args, parser)`` its exit
    status.  ``own`` replaces an option's metavar and help for this
    command, and the options named in ``exclusive`` exclude each other.
    """

    __slots__ = ("words", "handler", "description", "options", "defaults",
                 "own", "exclusive")

    def __init__(self, name: str, handler: Union[Handler, _Late],
                 description: str, options: Sequence[Union[str, Own]],
                 own: Optional[Dict[str, Dict[str, str]]] = None,
                 exclusive: Tuple[str, ...] = (), **defaults: Any) -> None:
        self.words = name.split()
        self.handler, self.description = handler, description
        self.options, self.defaults = options, defaults
        self.own, self.exclusive = own or {}, exclusive

    def parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(
            prog=" ".join(["repro-experiments", *self.words]),
            description=self.description,
            epilog=None if self.words else _COMMANDS_EPILOG,
            formatter_class=help_formatter())
        group = parser.add_mutually_exclusive_group() if self.exclusive \
            else None
        for item in self.options:
            flag, kwargs = (item, OPTIONS[item]) if isinstance(item, str) \
                else item
            kwargs = {key: _now(value) for key, value in
                      {**kwargs, **self.own.get(flag, {})}.items()}
            target = group if flag in self.exclusive else parser
            target.add_argument(flag, **kwargs)  # type: ignore[union-attr]
        parser.set_defaults(**{k: _now(v) for k, v in self.defaults.items()})
        return parser


_POINT = tuple(POINT)
_GRID_SIDES = (*RUNNER, *COLLECTORS)
_ONE_POINT = dict(app="sweep3d", cpus=32, scale=0.02)

COMMANDS: Tuple[Command, ...] = (
    Command("", _figures,
            "Regenerate the tables and figures of 'Dynamic Instrumentation "
            "of Large-Scale MPI and OpenMP Applications' (IPPS 2003).",
            (("experiments", dict(nargs="+", choices=EXPERIMENTS,
                                  help="which tables/figures to "
                                       "regenerate")),
             "--scale", "--seed",
             ("--quick", dict(action="store_true",
                              help="cap process counts for a fast smoke "
                                   "run")),
             "--csv", "--json", *_GRID_SIDES, *FAULTS)),
    Command("sweep", _sweep,
            "Run an arbitrary (app x policy x CPU-count) grid through the "
            "parallel sweep runner.",
            (("--apps", dict(type=_str_list, metavar="A,B",
                             help="applications (default: all)")),
             ("--policies", dict(type=_str_list, metavar="P,Q",
                                 help="policies (default: all)")),
             ("--cpus", dict(type=_cpu_list, metavar="1,4,16",
                             help="CPU counts (default: each app's own "
                                  "counts)")),
             "--scale", "--seed", "--machine", "--json", *_GRID_SIDES),
            apps=_Late("..apps", "ALL_APPS", list),
            policies=_Late("..dynprof", "POLICIES", list)),
    Command("trace", _trace,
            "Trace one simulated run: per-track utilization, the critical "
            "path through spans and causal flow edges, and the "
            "instrumentation-perturbation breakdown.",
            (*_POINT[1:], *TRACER,
             *((flag, dict(metavar="FILE", help="also write " + what))
               for flag, what in (
                   ("--out", "the raw trace document (JSON; '-' = stdout)"),
                   ("--chrome", "Chrome trace-event JSON (chrome://tracing "
                                "/ Perfetto)"),
                   ("--svg", "a static SVG timeline"),
                   ("--vgv", "the postmortem VT trace as VGVTRACE text "
                             "(see `trace compact`)"),
                   ("--vgvz", "the postmortem VT trace in the compact VGVZ "
                              "binary format")))),
            kind="policy", app="smg98", cpus=4),
    Command("trace compact", _trace_compact,
            "Streaming trace compaction: convert VGVTRACE text files "
            "(save_trace) to/from the compact VGVZ binary format, or "
            "report compression statistics.  The round trip is lossless, "
            "record for record.",
            (("action", dict(choices=("compress", "decompress", "stats"),
                             help="compress text->VGVZ, decompress "
                                  "VGVZ->text, or report per-file "
                                  "compaction statistics")),
             ("paths", dict(nargs="+", metavar="PATH",
                            help="trace files, or directories to scan "
                                 "(*.vgv/*.trace for compress, *.vgvz for "
                                 "decompress, both for stats)")),
             ("--out-dir", dict(metavar="DIR",
                                help="write outputs here instead of next "
                                     "to inputs")),
             ("--no-suppress", dict(action="store_true",
                                    help="disable repeat suppression (keep "
                                         "only the delta/varint framing) "
                                         "when compressing")),
             "--json")),
    Command("chaos", _chaos,
            "Run one (app, policy/instrument, CPUs) point under a "
            "deterministic fault-injection plan (default "
            "daemon-crash-attach); the tool degrades gracefully "
            "(quarantine + partial coverage) instead of failing.",
            (*_POINT,
             ("--check-determinism", dict(action="store_true",
                                          help="run the point twice and "
                                               "fail unless both payloads "
                                               "are bit-identical")),
             "--json", "--obs", "--obs-sample", "--record", "--replay",
             *FAULTS),
            own={"--record": dict(metavar="FILE",
                                  help="record the run's nondeterminism "
                                       "order log to FILE (replay it later "
                                       "with `replay verify` or --replay)"),
                 "--replay": dict(metavar="FILE",
                                  help="verify the run against the order "
                                       "log in FILE; divergence fails with "
                                       "a first-divergence report")},
            **_ONE_POINT),
    Command("replay verify", _Late(".replaycmd", "verify"),
            "Re-run the point a recorded order log describes and verify "
            "every nondeterminism decision against the recording; exits 1 "
            "at the first divergence.",
            (("log", dict(metavar="LOG",
                          help="a recorded .order file (chaos --record, "
                               "figure/sweep --record DIR)")),
             "--timeout", "--json")),
    Command("replay bisect", _Late(".replaycmd", "bisect"),
            "Delta-debug a fault plan (ddmin) down to a 1-minimal sub-plan "
            "that stays interesting: changes the payload (--mode effect), "
            "breaks the run (--mode fail), or diverges from a clean "
            "recording (--mode diverge --against LOG).",
            (*_POINT,
             ("--mode", dict(choices=("effect", "fail", "diverge"),
                             default="effect",
                             help="what makes a sub-plan interesting "
                                  "(default %(default)s)")),
             ("--against", dict(metavar="LOG",
                                help="clean recorded order log for --mode "
                                     "diverge")),
             "--timeout", "--json", *FAULTS),
            **_ONE_POINT),
    Command("obs report", _Late(".obscmd", "report"),
            "Render an obs metric document (written by --obs) as text, "
            "CSV, Prometheus text exposition or JSON.",
            (("file", dict(help="obs document path, or - for stdin")),
             ("--csv", dict(action="store_true",
                            help="emit the sampled series as long-format "
                                 "CSV")),
             ("--prom", dict(action="store_true",
                             help="emit the snapshot in Prometheus text "
                                  "exposition")),
             "--json"),
            exclusive=("--csv", "--prom", "--json")),
)

_COMMANDS_EPILOG = (
    "Other commands: "
    + ", ".join(" ".join(c.words) for c in COMMANDS if c.words)
    + "; `repro-experiments <command> --help` describes each.")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # The row with the most leading words of argv; the experiment ids'
    # row takes every other command line.
    command = max((c for c in COMMANDS if argv[:len(c.words)] == c.words),
                  key=lambda c: len(c.words))
    if not command.words and argv and any(
            c.words[:1] == argv[:1] for c in COMMANDS):
        # A command word without one of its subcommands.
        formatter = help_formatter()
        group = argparse.ArgumentParser(prog=f"repro-experiments {argv[0]}",
                                        formatter_class=formatter)
        words = group.add_subparsers(dest="command", required=True)
        for c in COMMANDS:
            if c.words[:1] == argv[:1]:
                words.add_parser(c.words[1], help=c.description,
                                 formatter_class=formatter)
        group.parse_args(argv[1:2])
    parser = command.parser()
    args = parser.parse_args(argv[len(command.words):])
    if getattr(args, "jobs", None) is not None and args.jobs < 0:
        parser.error("--jobs must be >= 0")
    return _now(command.handler)(args, parser)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
