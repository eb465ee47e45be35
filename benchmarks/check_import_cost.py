"""Guard the import cost of the simulation core and the CLI.

Run from the repository root::

    PYTHONPATH=src python benchmarks/check_import_cost.py

``import repro.simt`` sits on the critical path of every simulated
point and every test module, and ``import repro.experiments.cli`` is
what every ``repro-experiments`` invocation pays before its first
point (the benchmark's ``setup_s``).  The cached-sweep path exists so a
warm figure costs milliseconds, which an accidental matplotlib import
at module scope would single-handedly destroy.  This script runs
``python -X importtime -c "import <target>"`` for each target in a
fresh interpreter and fails if:

* any **heavy dependency** (numpy, matplotlib, scipy, pandas, PIL)
  shows up in the import graph.  numpy loads only where a point is
  simulated (``repro.runner.worker.preload``), and the plotting and
  analysis libraries only inside the figure-rendering functions;
* a module on the **target's own forbidden list** shows up: the
  simulator core may not import an observation sink (replay, compact,
  the metrics registry, the tracer, the time-series recorder), which it
  reaches only through the instrumentation tap; the CLI
  may not import the simulator (it loads in ``preload`` too), the
  cache daemon's HTTP server or SQLite, none of which a cached
  regeneration runs, nor a figure module (each loads when its
  experiment id runs), nor ``dataclasses`` (which loads ``inspect``,
  ``ast``, ``dis`` and ``tokenize``; the CLI's records are plain
  classes and the simulator's dataclasses load with it), ``traceback``
  or ``signal`` (only a failing or time-limited point needs them);
* the **cumulative import time** exceeds a generous wall-clock budget.
  It is a tripwire for someone adding a heavy module-scope import, not
  a micro-benchmark — hence the slack for slow CI runners.

Exits non-zero on violation so CI can gate on it.
"""

import argparse
import subprocess
import sys

#: Packages that must never be imported by the core or the CLI.  numpy
#: costs about 50 ms and is needed only once a point is simulated; each
#: of the others costs hundreds of milliseconds and none is needed
#: before a figure is actually rendered.
FORBIDDEN = ("numpy", "matplotlib", "scipy", "pandas", "PIL")

#: Cumulative import-time budget in milliseconds, per target, counting
#: the interpreter's own startup imports too.  ``import
#: repro.experiments.cli`` measures 46-73 ms that way on a 2-core Xeon
#: container (18-20 ms for the CLI's own subtree); 1500 ms leaves room
#: for cold filesystem caches and slow shared runners while still
#: catching a stray matplotlib (~500+ ms on its own).
DEFAULT_BUDGET_MS = 1500

#: The modules behind the experiment ids of the artifact table: one
#: loads only when an id it serves runs.
FIGURES = tuple(f"repro.experiments.{name}" for name in (
    "fig7", "fig8", "fig9", "tracevol", "tables", "overhead"))

#: Target -> the modules (and their submodules) it may not import, on
#: top of :data:`FORBIDDEN`.
TARGETS = {
    # The simulator core reaches observation through the one tap; the
    # sinks load only where a collector installs them.
    "repro.simt": ("repro.replay", "repro.compact", "repro.obs.registry",
                   "repro.obs.trace", "repro.obs.timeseries"),
    "repro.experiments.cli": (
        "repro.simt", "repro.cluster.topology", "repro.mpi", "repro.openmp",
        "repro.vt", "repro.program", "repro.dpcl", "repro.dynprof.tool",
        "repro.jobs", "repro.svc.httpcache", "http.server", "sqlite3",
        "dataclasses", "inspect", "traceback", "signal",
    ) + FIGURES,
}


def _offends(module, forbidden):
    return any(module == name or module.startswith(name + ".")
               for name in forbidden)


def check_target(target, budget_ms=DEFAULT_BUDGET_MS):
    forbidden = FORBIDDEN + TARGETS[target]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {target}"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"import-cost: FAIL - 'import {target}' itself failed:\n"
              f"{proc.stderr}", file=sys.stderr)
        return 1

    # -X importtime lines: "import time: <self_us> | <cumulative_us> | <module>"
    total_us = 0
    offenders = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        try:
            fields = line.split("|")
            self_us = int(fields[0].split(":")[1].strip())
            module = fields[2].strip()
        except (IndexError, ValueError):
            continue
        total_us += self_us
        if _offends(module, forbidden):
            offenders.append(module)

    total_ms = total_us / 1000.0
    print(f"import-cost: 'import {target}' = {total_ms:.0f} ms "
          f"(budget {budget_ms} ms)")
    ok = True
    if offenders:
        roots = sorted({name for name in forbidden
                        if any(_offends(m, (name,)) for m in offenders)})
        print(f"import-cost: FAIL - 'import {target}' pulls in modules it "
              f"must not load at module scope: {', '.join(roots)} "
              f"({len(offenders)} modules). "
              f"Move the import inside the function that uses it.",
              file=sys.stderr)
        ok = False
    if total_ms > budget_ms:
        print(f"import-cost: FAIL - 'import {target}' {total_ms:.0f} ms "
              f"exceeds the {budget_ms} ms budget", file=sys.stderr)
        ok = False
    if ok:
        print("import-cost: OK")
    return 0 if ok else 1


def check(budget_ms=DEFAULT_BUDGET_MS):
    """Check every target; non-zero if any fails."""
    return max(check_target(t, budget_ms) for t in TARGETS)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Fail if the simulation core or the CLI got expensive "
                    "to import.")
    parser.add_argument(
        "--budget-ms", type=int, default=DEFAULT_BUDGET_MS,
        help=f"cumulative import-time budget (default {DEFAULT_BUDGET_MS})")
    args = parser.parse_args(argv)
    return check(budget_ms=args.budget_ms)


if __name__ == "__main__":
    sys.exit(main())
