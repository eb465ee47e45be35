"""A library figure call leaves no pool workers behind.

``run_fig7``, ``run_fig8a/b/c``, ``run_fig9`` and ``run_tracevol``
without a ``runner`` run their grid in-process, so no worker is left
when the call returns.  A runner the caller passes in stays open, so
one pool can serve several figures; the caller closes it.
"""

import multiprocessing

import pytest

from repro.experiments import (run_fig7, run_fig8a, run_fig8b, run_fig8c,
                               run_fig9, run_tracevol)
from repro.runner import SweepRunner

CALLS = {
    "fig7": lambda **kw: run_fig7("sweep3d", cpu_counts=(1, 2), scale=0.01,
                                  **kw),
    "fig8a": lambda **kw: run_fig8a((2, 4), **kw),
    "fig8b": lambda **kw: run_fig8b((2,), **kw),
    "fig8c": lambda **kw: run_fig8c((2,), **kw),
    "fig9": lambda **kw: run_fig9(cpu_counts=(2,), apps=["umt98"], **kw),
    "tracevol": lambda **kw: run_tracevol(apps=["sweep3d"], n_cpus=2,
                                          scale=0.01, **kw),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_call_without_a_runner_leaves_no_workers(name):
    before = set(multiprocessing.active_children())
    CALLS[name]()
    assert set(multiprocessing.active_children()) <= before


def test_a_callers_runner_stays_open_for_the_next_figure():
    before = set(multiprocessing.active_children())
    runner = SweepRunner(jobs=2)
    try:
        run_fig8c((2, 4), runner=runner)
        workers = set(multiprocessing.active_children()) - before
        assert workers
        run_fig8b((2, 4), runner=runner)
        assert set(multiprocessing.active_children()) - before == workers
    finally:
        runner.close()
    assert set(multiprocessing.active_children()) <= before
