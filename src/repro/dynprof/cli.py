"""The dynprof command-line tool.

Mirrors the paper's invocation (Section 3.3)::

    dynprof <stdin> <stdout> <timefile> <target executable> <target params> <poe params>

Here the target executable is one of the bundled ASCI kernel analogs and
the whole run happens inside the simulated cluster::

    repro-dynprof script.dp out.txt timings.txt sweep3d --cpus 8
    repro-dynprof - - - smg98 --cpus 4 --scale 0.05   # script on stdin, output on stdout

The script file holds Table 1 commands (insert/remove/insert-file/
remove-file/start/wait/quit); ``@targets`` in an insert-file argument
refers to the app's paper-defined dynamic target list.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..apps import ALL_APPS, InputDeck, deck_scale, get_app
from ..cliargs import POINT, help_formatter
from ..cluster import Cluster, get_machine
from ..jobs import MpiJob, OmpJob
from ..runner.point import check_scale
from ..simt import Environment
from .commands import CommandError, parse_script
from .tool import DynProf

__all__ = ["main"]

#: The point group (repro.cliargs) and the input deck: every option,
#: declared once by its flag.
_OPTIONS = {**POINT, "--input": dict(
    metavar="DECK", help="application input deck (key = value; the app's "
                         "native iteration key sets the scale, ncpus "
                         "overrides --cpus)")}


def _unreadable(path: str, exc: OSError) -> int:
    """One error line for an input file that cannot be read; exit 2."""
    print(f"repro-dynprof: {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-dynprof",
        description="dynprof: dynamically instrument a (simulated) MPI/OpenMP "
                    "application.",
        formatter_class=help_formatter(),
    )
    parser.add_argument("stdin", help="command script file, or '-' for stdin")
    parser.add_argument("stdout", help="tool output file, or '-' for stdout")
    parser.add_argument("timefile", help="internal-timings file, or '-' for stdout")
    parser.add_argument("target", choices=sorted(ALL_APPS),
                        help="target application")
    for flag in ("--cpus", "--scale", "--input", "--machine", "--seed"):
        parser.add_argument(flag, **_OPTIONS[flag])
    parser.set_defaults(cpus=4)
    args = parser.parse_args(argv)

    app = get_app(args.target)
    scale = args.scale
    n_cpus = args.cpus
    if args.input:
        try:
            deck = InputDeck.load(args.input)
        except OSError as exc:
            return _unreadable(args.input, exc)
        try:
            scale = check_scale(deck_scale(app, deck, default_scale=scale))
        except ValueError as exc:
            parser.error(f"argument --input: {args.input}: {exc}")
        n_cpus = deck.get_int("ncpus", args.cpus)
        if n_cpus < 1:
            parser.error(f"argument --input: {args.input}: ncpus must be "
                         f">= 1, got {n_cpus}")

    if args.stdin == "-":
        script = sys.stdin.read()
    else:
        try:
            with open(args.stdin, "r", encoding="utf-8") as fh:
                script = fh.read()
        except OSError as exc:
            return _unreadable(args.stdin, exc)
    try:
        commands = parse_script(script)
    except CommandError as exc:
        print(f"repro-dynprof: {exc}", file=sys.stderr)
        return 2

    env = Environment()
    cluster = Cluster(env, get_machine(args.machine), seed=args.seed)
    exe = app.build_exe(False)
    program = app.make_program(n_cpus, scale)
    job_class = MpiJob if app.kind == "mpi" else OmpJob
    job = job_class(env, cluster, exe, n_cpus, program, start_suspended=True)

    tool = DynProf(
        env, cluster, job,
        file_contents={"@targets": "\n".join(app.dynamic_targets)},
    )
    session = tool.run_commands(commands)
    env.run(until=session)
    if tool.create_and_instrument_time is None:
        print(f"repro-dynprof: the command script never runs `start`, so "
              f"{app.name} never ran", file=sys.stderr)
        return 2
    if tool.state == "detached" or tool.state == "running":
        env.run(until=job.completion())
    env.run()

    body = "\n".join(tool.output) + "\n"
    times = [p.value for p in (job.procs if app.kind == "mpi" else [job.proc])]
    body += (
        f"\napplication main computation: max {max(times):.3f}s over "
        f"{len(times)} process(es)\n"
        f"trace: {job.trace.raw_record_count:,} records, "
        f"{job.trace.size_bytes / 1e6:.2f} MB\n"
        f"time to create and instrument: "
        f"{tool.create_and_instrument_time:.2f}s\n"
    )

    for path, text in ((args.stdout, body),
                       (args.timefile, tool.timefile.render())):
        if path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
