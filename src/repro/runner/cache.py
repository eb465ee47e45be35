"""Content-addressed on-disk cache for sweep-point results.

The simulations are deterministic: a point's result is a pure function
of its configuration, the machine's cost-model constants, and the
package version.  :func:`point_key` hashes exactly those inputs
(SHA-256 over canonical JSON), so a cached entry is valid forever —
there is no TTL and no invalidation protocol; changing any input
changes the key.

Each entry is one document (:func:`build_entry`): the key, the point's
canonical description (for humans and audit), and the result payload.
:class:`ResultCache` keeps them as JSON files under
``<root>/<key[:2]>/<key>.json``; writes are atomic (temp file +
``os.replace``).  A corrupted or mismatched entry is treated as a miss
and discarded, so a damaged cache degrades to recomputation, never to
a crash or a wrong result.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from ..obs import get as _obs_get
from .point import SweepPoint

__all__ = [
    "point_key",
    "build_entry",
    "validate_entry",
    "ResultCache",
    "default_cache_dir",
]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def _package_version() -> str:
    # Imported lazily: repro/__init__ imports this package, so a
    # module-level "from .. import __version__" would be circular.
    from .. import __version__

    return __version__


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/sweep``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sweep"


#: Stands in for the machine block while the rest of a key document is
#: encoded (see :func:`point_key`).
_MACHINE_SLOT = '"machine":null'


def point_key(point: SweepPoint, version: Optional[str] = None) -> str:
    """Stable SHA-256 key of one sweep point.

    Hashes the canonicalized point (which embeds every cost-model
    constant of its machine) plus the package version, so results
    survive across processes and runs but never across a cost-model
    ablation or a release that may change the simulation.

    The hashed text is the compact, sort-keyed JSON of ``{"point":
    point.canonical(), "version": ...}``.  Only the point's own small
    fields are encoded here; the machine block is the spec's
    :attr:`~repro.cluster.MachineSpec.canonical_json`, encoded once
    per spec.  It is spliced in at the first ``"machine":null``: every
    quote inside a JSON string is escaped, so that text can only be a
    key, and the only keys encoded before it are ``"point"``, ``"app"``
    and ``"kind"`` (a ``"machine"`` param sorts after, inside
    ``"params"``).
    """
    head = point.canonical_head()
    head["machine"] = None
    blob = json.dumps(
        {"point": head,
         "version": version if version is not None else _package_version()},
        sort_keys=True, separators=(",", ":"),
    ).replace(_MACHINE_SLOT, '"machine":' + point.machine.canonical_json, 1)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_entry(
    key: str,
    point: Optional[SweepPoint],
    payload: Any,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The canonical document a cache entry holds."""
    entry: Dict[str, Any] = {
        "key": key,
        "version": _package_version(),
        "point": point.canonical() if point is not None else None,
        "payload": payload,
    }
    if meta:
        entry["meta"] = meta
    return entry


def validate_entry(key: str, entry: Any) -> bool:
    """True iff ``entry`` is a well-formed document for ``key``."""
    return (
        isinstance(entry, dict)
        and entry.get("key") == key
        and "payload" in entry
    )


class ResultCache:
    """Directory of content-addressed sweep results.

    Hits, misses and corrupt discards are counted here and mirrored into
    :mod:`repro.obs` as ``svc.cache.directory.<event>``."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._root = os.fspath(self.root)
        self.hits = 0
        self.misses = 0
        #: Corrupt entries turned into misses so far — surfaced via the
        #: sweep telemetry summary instead of vanishing without a trace.
        self.corrupt_discards = 0

    def _count(self, event: str) -> None:
        setattr(self, event, getattr(self, event) + 1)
        registry = _obs_get()
        if registry.enabled:
            registry.inc(f"svc.cache.directory.{event}")

    def _path(self, key: str) -> str:
        # One string build per probe: pathlib's joins cost about as much
        # as keying the point.
        return f"{self._root}{os.sep}{key[:2]}{os.sep}{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored entry for ``key``, or None on miss *or* corruption.

        A corrupted entry (unreadable, invalid JSON, wrong shape, or a
        key that does not match its filename) is deleted so the slot is
        clean for the recomputed result; each discard is counted.
        """
        path = self._path(key)
        try:
            # Bytes, not text: json.loads detects UTF-8 itself and the
            # read skips a text decoder's setup.
            with open(path, "rb") as fh:
                entry = json.loads(fh.read())
        except FileNotFoundError:
            self._count("misses")
            return None
        except (OSError, ValueError, UnicodeDecodeError):
            entry = None  # unreadable: as corrupt as a malformed entry
        if not validate_entry(key, entry):
            self._unlink(path)
            self._count("corrupt_discards")
            self._count("misses")
            return None
        self._count("hits")
        return entry

    def put(
        self,
        key: str,
        point: Optional[SweepPoint],
        payload: Any,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Store ``payload`` for ``key``."""
        self.put_entry(key, build_entry(key, point, payload, meta))

    def put_entry(self, key: str, entry: Dict[str, Any]) -> None:
        """Atomically store ``entry`` verbatim (temp file + rename)."""
        if not validate_entry(key, entry):
            raise ValueError(f"malformed cache entry for key {key[:12]}...")
        path = self._path(key)
        bucket = os.path.dirname(path)
        os.makedirs(bucket, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{key[:8]}-", suffix=".tmp",
                                   dir=bucket)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # json.dumps, unlike json.dump, runs the C encoder; the
                # bytes are the same.
                fh.write(json.dumps(entry))
            os.replace(tmp, path)
        except BaseException:
            self._unlink(tmp)
            raise

    def __contains__(self, key: str) -> bool:
        """True only if :meth:`get` would hit (so, like ``get``, it
        validates and discards a corrupted entry)."""
        return self.get(key) is not None

    def discard(self, key: str) -> bool:
        path = self._path(key)
        existed = os.path.isfile(path)
        self._unlink(path)
        return existed

    def _iter_paths(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        # Interrupted writes can leave ".<key>-*.tmp" droppings next to
        # the entries; anything dot-prefixed is not an entry.
        for path in self.root.glob("??/*.json"):
            if not path.name.startswith("."):
                yield path

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_paths())

    def clear(self) -> int:
        """Remove every entry (and stale temp files); returns how many
        entries were removed."""
        n = 0
        for path in list(self._iter_paths()):
            self._unlink(path)
            n += 1
        if self.root.is_dir():
            for tmp in self.root.glob("??/.*.tmp"):
                self._unlink(tmp)
        return n

    @staticmethod
    def _unlink(path: Union[str, Path]) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def __repr__(self) -> str:
        # O(1) on purpose: logging a runner must never walk the cache
        # directory (``len(self)`` scans every entry).
        return f"<{type(self).__name__} directory:{self.root}>"
