"""argparse types shared by the ``repro-experiments`` and
``repro-dynprof`` command lines."""

from __future__ import annotations

import argparse

__all__ = ["positive_int"]


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
