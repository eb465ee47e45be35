"""argparse types shared by the ``repro-experiments`` and
``repro-dynprof`` command lines."""

from __future__ import annotations

import argparse
import math

__all__ = ["positive_int", "positive_float"]


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
