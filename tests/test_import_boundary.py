"""Each invocation imports only what it runs.

A cached regeneration parses its arguments, probes the cache and
renders: it needs the runner, the machine specs and the figure
modules, never the simulator (``repro.simt`` and everything built on
it) or numpy.  Those load where a point is simulated, in
:func:`repro.runner.worker.preload`, which ``execute_point`` and the
process pool call before the point's clock starts and before forking.

Each check runs in a fresh interpreter, because this one has already
loaded everything.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")


def _import_cost_check():
    path = os.path.join(ROOT, "benchmarks", "check_import_cost.py")
    spec = importlib.util.spec_from_file_location("check_import_cost", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_CHECK = _import_cost_check()

#: Never loaded by a run that simulates nothing: the CLI's forbidden
#: list in ``benchmarks/check_import_cost.py``.
SIMULATOR = _CHECK.FORBIDDEN + _CHECK.TARGETS["repro.experiments.cli"]


def _run(code):
    """Run ``code`` in a fresh interpreter; return its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _loaded_after(body):
    """The modules of :data:`SIMULATOR` loaded after running ``body``."""
    code = (f"import json, sys\n{body}\n"
            f"print(json.dumps([m for m in {SIMULATOR!r} if m in sys.modules]))")
    return json.loads(_run(code))


def _cli(argv):
    """A body that runs ``repro-experiments argv`` and checks exit 0."""
    return ("import contextlib, io\n"
            "from repro.experiments.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n")


# The numpy-named tests predate the simulator moving off the import
# path; each now checks all of SIMULATOR, numpy included.
@pytest.mark.parametrize("module", ["repro", "repro.experiments",
                                    "repro.experiments.cli"])
def test_import_does_not_load_numpy(module):
    assert _loaded_after(f"import {module}") == []


def test_table_does_not_load_numpy():
    assert _loaded_after(_cli(["table1"])) == []


def test_help_loads_no_simulator():
    body = ("import contextlib, io\n"
            "from repro.experiments.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        main(['--help'])\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0\n")
    assert _loaded_after(body) == []


def test_warm_cache_figure_does_not_load_numpy(tmp_path):
    body = _cli(["fig8", "--quick", "--cache-dir", str(tmp_path)])
    cold = _loaded_after(body)  # points were simulated
    assert {"numpy", "repro.simt", "repro.vt"} <= set(cold)
    assert _loaded_after(body) == []  # every point cached


@pytest.mark.parametrize("package", ["repro", "repro.experiments"])
def test_every_public_name_resolves(package):
    code = (f"import {package} as pkg\n"
            "missing = [n for n in pkg.__all__ if getattr(pkg, n, None) is None]\n"
            "assert not missing, missing\n"
            "assert set(pkg.__all__) <= set(dir(pkg))\n"
            "print(len(pkg.__all__))")
    assert int(_run(code)) > 10


def test_star_import_and_attribute_access():
    code = ("from repro import *\n"
            "import repro\n"
            "assert DynProf is repro.DynProf and obs is repro.obs\n"
            "assert repro.obs.trace.DEFAULT_CAPACITY > 0\n"
            "try:\n"
            "    repro.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)")
    assert "has no attribute 'no_such_name'" in _run(code)


def test_process_pool_loads_numpy_before_forking():
    body = ("from repro.svc.executors import ProcessPoolBackend\n"
            "backend = ProcessPoolBackend(2)\n"
            "backend._pool_for(2)\n"
            "backend.close()")
    assert {"numpy", "repro.simt", "repro.vt", "repro.dynprof.tool"} \
        <= set(_loaded_after(body))


FIRST_POINTS = {
    "confsync": "SweepPoint.confsync(32)",
    "policy": "SweepPoint.policy_cell('sppm', 'Dynamic', 4, scale=0.02)",
    "instrument": "SweepPoint.instrument('umt98', 2)",
}


@pytest.mark.parametrize("collectors", ["", "all"])
@pytest.mark.parametrize("kind", sorted(FIRST_POINTS))
def test_forked_workers_first_point_imports_nothing(kind, collectors):
    # numpy 2 loads numpy.random on first use: without the preload a
    # fresh worker's first jittered point imported it on the clock.
    code = ("import sys\n"
            "from repro.runner import SweepPoint\n"
            "from repro.runner.collect import (MetricsCollector, OrderCollector,\n"
            "    SampleCollector, TraceCollector)\n"
            "from repro.runner.worker import execute_point\n"
            "from repro.svc.executors import ProcessPoolBackend\n"
            "def first_point(point, collectors):\n"
            "    before = set(sys.modules)\n"
            "    envelope = execute_point(point, collectors=collectors)\n"
            "    assert envelope['status'] == 'ok', envelope\n"
            "    return sorted(set(sys.modules) - before)\n"
            "collectors = []\n"
            f"if {collectors!r}:\n"
            "    collectors = [MetricsCollector(), TraceCollector(),\n"
            "                  SampleCollector(0.5), OrderCollector()]\n"
            "backend = ProcessPoolBackend(1)\n"
            "pool = backend._pool_for(1)\n"
            f"future = pool.submit(first_point, {FIRST_POINTS[kind]}, collectors)\n"
            "print(future.result())\n"
            "backend.close()")
    assert _run(code) == "[]"


def test_execute_point_loads_numpy_before_the_clock_starts():
    # An echo point needs no simulator, so only the preload can load
    # it; the imports must land outside the envelope's wall_time.
    body = ("import time\n"
            "from repro.runner import SweepPoint, execute_point\n"
            "point = SweepPoint.selftest('echo', value=1)\n"
            "t0 = time.perf_counter()\n"
            "envelope = execute_point(point)\n"
            "total = time.perf_counter() - t0\n"
            "assert envelope['status'] == 'ok'\n"
            "assert envelope['wall_time'] < total / 2, (envelope, total)")
    assert {"numpy", "repro.simt"} <= set(_loaded_after(body))
