"""Application input decks.

The real ASCI kernels read their problem configuration from input files
(sweep3d's ``input`` deck, sPPM's ``inputdeck``, hypre/SMG command-line
options, UMT's grid file).  This module gives the analogs the same
front door: a ``key = value`` deck whose app-native iteration parameter
maps onto the workload-scale knob the programs take.

.. code-block:: text

    # sweep3d input deck
    itm   = 6        # outer source iterations
    ncpus = 8        # optional, overrides --cpus

Per-app native keys (matching the original codes' vocabulary):

=========  =========== =============================================
app        key          meaning
=========  =========== =============================================
smg98      maxiter      multigrid V-cycles       (paper-scale: 10)
sppm       nstop        hydro timesteps          (paper-scale: 20)
sweep3d    itm          source iterations        (paper-scale: 12)
umt98      niter        transport iterations     (paper-scale: 10)
=========  =========== =============================================
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from .._record import Record
from .base import AppSpec

__all__ = ["InputDeck", "ITERATION_KEYS", "deck_scale"]

#: app name -> (native iteration key, paper-scale iteration count).
ITERATION_KEYS: Dict[str, tuple] = {
    "smg98": ("maxiter", 10),
    "sppm": ("nstop", 20),
    "sweep3d": ("itm", 12),
    "umt98": ("niter", 10),
}

Value = Union[int, float, str]


class InputDeck(Record):
    """A parsed ``key = value`` input deck."""

    _fields = ("params",)

    def __init__(self, params: Optional[Dict[str, Value]] = None) -> None:
        self.params = {} if params is None else params

    @classmethod
    def parse(cls, text: str) -> "InputDeck":
        deck = cls()
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].split("!", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"input deck line {line_no}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if not key or not value:
                raise ValueError(f"input deck line {line_no}: empty key or value")
            deck.params[key] = _coerce(value)
        return deck

    @classmethod
    def load(cls, path: str) -> "InputDeck":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def get(self, key: str, default: Optional[Value] = None) -> Optional[Value]:
        return self.params.get(key.lower(), default)

    def get_int(self, key: str, default: Optional[int] = None) -> Optional[int]:
        value = self.get(key)
        if value is None:
            return default
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if not isinstance(value, int):
            raise ValueError(f"input deck: {key} = {value!r} is not an integer")
        return value

    def __contains__(self, key: str) -> bool:
        return key.lower() in self.params

    def __len__(self) -> int:
        return len(self.params)


def _coerce(token: str) -> Value:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def deck_scale(app: AppSpec, deck: InputDeck, default_scale: float = 1.0) -> float:
    """Workload scale implied by the app's native iteration parameter.

    ``maxiter = 5`` in an Smg98 deck means half the paper's 10 V-cycles,
    so scale 0.5.  Falls back to ``default_scale`` when the deck does
    not set the parameter.  An explicit ``scale =`` entry wins.
    """
    explicit = deck.get("scale")
    if explicit is not None:
        if not isinstance(explicit, (int, float)) or explicit <= 0:
            raise ValueError(f"input deck: scale = {explicit!r} must be positive")
        return float(explicit)
    key, paper_value = ITERATION_KEYS[app.name]
    iterations = deck.get_int(key)
    if iterations is None:
        return default_scale
    if iterations < 1:
        raise ValueError(f"input deck: {key} = {iterations} must be >= 1")
    return iterations / paper_value
