"""Lazy public names for package ``__init__`` modules (PEP 562).

A package lists each public name under the submodule that defines it;
the submodule is imported the first time the name is read, so
``import repro`` (and every ``from repro.x import y``) costs only what
the caller goes on to use.  ``from repro import DynProf`` and
``repro.DynProf`` work as before.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package whose
    globals are ``namespace``.

    ``exports`` maps a relative submodule (``".cluster"``) to the names
    it serves.  A name equal to its submodule's own name (``"obs"``
    under ``".obs"``) is that submodule.  A name is cached in
    ``namespace`` once resolved.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            submodule = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        # The import statement's own path (a level-1 relative import
        # returns the submodule itself), so ``-X importtime`` lists
        # what loads here, as importlib.import_module would not.
        module = __import__(submodule[1:], namespace, None, (), 1)
        value = module if submodule == "." + name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *where})

    return list(where), __getattr__, __dir__
