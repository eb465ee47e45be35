"""numpy stays off the CLI's import path and loads before the first point.

Every ``repro-experiments`` invocation pays for what ``repro`` imports
at module scope, and numpy is about two thirds of that.  No cached
regeneration or table needs it, so it must load only where a point is
simulated: in :func:`repro.runner.worker.preload`, which
``execute_point`` and the process pool call.  Each check runs in a
fresh interpreter, because this one already has numpy loaded.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def _run(code):
    """Run ``code`` in a fresh interpreter; return its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _numpy_loaded_after(body):
    return _run(f"import sys\n{body}\nprint('numpy' in sys.modules)")


@pytest.mark.parametrize("module", ["repro", "repro.experiments.cli"])
def test_import_does_not_load_numpy(module):
    assert _numpy_loaded_after(f"import {module}") == "False"


def test_table_does_not_load_numpy():
    body = ("from repro.experiments.cli import main\n"
            "assert main(['table1']) == 0")
    assert _numpy_loaded_after(body) == "False"


def test_warm_cache_figure_does_not_load_numpy(tmp_path):
    body = ("from repro.experiments.cli import main\n"
            f"assert main(['fig8', '--quick', '--cache-dir', {str(tmp_path)!r}]) == 0")
    assert _numpy_loaded_after(body) == "True"  # cold: points were simulated
    assert _numpy_loaded_after(body) == "False"  # warm: every point cached


def test_process_pool_loads_numpy_before_forking():
    body = ("from repro.svc.executors import ProcessPoolBackend\n"
            "backend = ProcessPoolBackend(2)\n"
            "backend._pool_for(2)\n"
            "backend.close()")
    assert _numpy_loaded_after(body) == "True"


def test_execute_point_loads_numpy_before_the_clock_starts():
    # An echo point needs no numpy, so only the preload can load it;
    # the import must land outside the envelope's wall_time.
    body = ("import time\n"
            "from repro.runner import SweepPoint, execute_point\n"
            "point = SweepPoint.selftest('echo', value=1)\n"
            "t0 = time.perf_counter()\n"
            "envelope = execute_point(point)\n"
            "total = time.perf_counter() - t0\n"
            "assert envelope['status'] == 'ok'\n"
            "assert envelope['wall_time'] < total / 2, (envelope, total)")
    assert _numpy_loaded_after(body) == "True"
