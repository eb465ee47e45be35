"""Suite-wide safety net: a hard wall-clock ceiling on any pytest run.

The fault-injection tests deliberately create worlds where things hang
(dead daemons, lost handshakes); a bug in a recovery path turns a test
failure into an eternal hang that CI only reports as a cancelled job
with no traceback.  ``faulthandler.dump_traceback_later`` arms a
watchdog *thread* that dumps every stack and kills the process at the
deadline — unlike SIGALRM it cannot collide with the per-point
``setitimer`` budget the sweep worker uses (pytest-timeout is not a
dependency for the same reason).
"""

import faulthandler
import os

import pytest

#: Whole-session ceiling, not per-test: generous enough for the slowest
#: CI matrix leg, small enough to beat the job-level cancel.
SUITE_TIMEOUT_S = float(os.environ.get("REPRO_SUITE_TIMEOUT", "1200"))


def pytest_configure(config):
    if SUITE_TIMEOUT_S > 0:
        faulthandler.dump_traceback_later(SUITE_TIMEOUT_S, exit=True)


def pytest_unconfigure(config):
    faulthandler.cancel_dump_traceback_later()


def pytest_collection_modifyitems(config, items):
    """Paper-scale digest checks take tens of seconds, so they run only
    when selected by marker (``-m paper_digest``); tier-1 stays fast."""
    if "paper_digest" in (config.getoption("markexpr") or ""):
        return
    skip = pytest.mark.skip(reason="paper-scale digests; select with -m paper_digest")
    for item in items:
        if "paper_digest" in item.keywords:
            item.add_marker(skip)
