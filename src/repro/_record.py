"""Plain-class records: field-wise equality and a dataclass-style repr.

The records the CLI imports and a cached regeneration builds (sweep
points, machine specs, results, fault plans, app specs) are plain
classes, not dataclasses: building a dataclass loads :mod:`inspect`,
:mod:`ast`, :mod:`dis` and :mod:`tokenize` and generates code at import
time, which every ``repro-experiments`` invocation would pay before its
first point.  The simulator keeps its dataclasses; they load with it.

A subclass names its fields, in order, in ``_fields`` and sets them in
its own ``__init__``.  :class:`Record` compares and prints instances as
a non-frozen dataclass over those fields would (unhashable);
:class:`FrozenRecord` adds the hash and the frozenness of
``@dataclass(frozen=True)``: assigning or deleting an attribute raises
:class:`AttributeError`, so a frozen ``__init__`` fills ``__dict__``.
"""

from __future__ import annotations

from typing import Any, Tuple

__all__ = ["Record", "FrozenRecord"]


class Record:
    """Equality and ``repr`` over the fields named in ``_fields``."""

    __slots__ = ()

    _fields: Tuple[str, ...] = ()

    def _values(self) -> Tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({body})"


class FrozenRecord(Record):
    """A hashable :class:`Record` whose attributes cannot be assigned."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
