"""The option table shared by the ``repro-experiments`` and
``repro-dynprof`` command lines: argparse types and the point group.

An option is declared once, as the keyword arguments of its
``add_argument`` call keyed by its flag; a command adds the options it
takes and sets its own defaults, which the help texts read back as
``%(default)s``.  Both command lines build their parsers with
:func:`help_formatter`.
"""

from __future__ import annotations

import argparse
import math
from typing import Any, Callable, Dict

from .cluster import MACHINES

__all__ = ["positive_int", "positive_float", "help_formatter", "POINT"]


def help_formatter() -> Callable[..., argparse.HelpFormatter]:
    """A ``formatter_class`` for one parser that probes the terminal once.

    argparse builds a :class:`~argparse.HelpFormatter` for every
    ``add_argument`` call, and each one asks
    :func:`shutil.get_terminal_size` for the width.  This resolves the
    width the same way (columns less 2) when the parser is built and
    hands it to every formatter, so the help text is byte-identical.
    """
    import shutil  # as argparse does: only once a parser is built

    width = shutil.get_terminal_size().columns - 2

    def formatter(prog: str) -> argparse.HelpFormatter:
        return argparse.HelpFormatter(prog, width=width)

    return formatter


def positive_int(text: str) -> int:
    """A process or CPU count: an integer >= 1.  Anything else is a
    usage error (exit 2) before any point runs."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return value


def positive_float(text: str) -> float:
    """A scale or a time budget: a finite number > 0.  Anything else (0,
    a negative number, NaN, infinity) is a usage error (exit 2) before
    any point runs."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}")
    return value


#: One simulated point: what runs, on how many CPUs of which machine, at
#: which workload scale and seed.  ``--kind`` only where a command runs
#: either kind of point.
POINT: Dict[str, Dict[str, Any]] = {
    "--kind": dict(choices=("instrument", "policy"), default="instrument",
                   help="point kind: 'instrument' = a Figure 9 cell, "
                        "'policy' = a Figure 7 cell (default %(default)s)"),
    "--app": dict(help="application, a Table 3 kernel "
                       "(default %(default)s)"),
    "--policy": dict(default="Dynamic",
                     help="instrumentation policy (default %(default)s)"),
    "--cpus": dict(type=positive_int,
                   help="process count (default %(default)s)"),
    "--scale": dict(type=positive_float, default=0.1,
                    help="workload scale factor (default %(default)s)"),
    "--seed": dict(type=int, default=0,
                   help="simulation seed (default %(default)s)"),
    "--machine": dict(choices=sorted(MACHINES), default="power3-sp",
                      help="machine preset (default %(default)s)"),
}
