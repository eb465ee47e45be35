"""Pluggable cache backends for sweep results.

The :class:`~repro.runner.cache.ResultCache` directory layout was the
only result store the runner knew; this module generalizes it into a
small :class:`CacheBackend` protocol so the same content-addressed
entries can live in memory, in a single SQLite file shared by
concurrent workers, or behind a small HTTP daemon shared by machines —
without the runner caring which.

All backends store the *same entry shape* the directory cache always
used (``{"key", "version", "point", "payload"[, "meta"]}``), validate
it on read, and turn corruption into a counted miss — never a crash,
never a wrong result.  Every backend also keeps local hit/miss/
eviction/corruption counters (:meth:`CacheBackend.stats`) and mirrors
them into the :mod:`repro.obs` registry as ``svc.cache.*`` counters
when observation is enabled.

Backends are addressed by short spec strings (the CLI's
``--cache-backend``)::

    dir:/path/to/cache          sharded directory (the default layout)
    memory                      process-local dict, LRU-bounded
    sqlite:/path/cache.db       single file, WAL, multi-process safe
    http://host:8750            client for a `repro serve-cache` daemon

:func:`make_cache_backend` parses these.
"""

from __future__ import annotations

import json
import os
import queue
import sqlite3
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Protocol, Tuple, Union, runtime_checkable

from ..obs import get as _obs_get
from ..runner.cache import ResultCache
from ..runner.point import SweepPoint
from ..runner.retry import RetryPolicy

__all__ = [
    "CacheBackend",
    "DirectoryBackend",
    "MemoryBackend",
    "SqliteBackend",
    "HttpBackend",
    "make_cache_backend",
    "build_entry",
    "validate_entry",
]


def _package_version() -> str:
    from .. import __version__

    return __version__


def build_entry(
    key: str,
    point: Optional[SweepPoint],
    payload: Any,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The canonical entry document every backend stores."""
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


@runtime_checkable
class CacheBackend(Protocol):
    """What the runner (and the cache daemon) need from a result store.
    ``get``/``put`` mirror :class:`~repro.runner.cache.ResultCache`
    exactly, so the directory cache *is* a backend."""

    backend_name: str

    def get(self, key: str) -> Optional[Dict[str, Any]]: ...

    def put(
        self,
        key: str,
        point: Optional[SweepPoint],
        payload: Any,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None: ...

    def put_entry(self, key: str, entry: Dict[str, Any]) -> None: ...

    def discard(self, key: str) -> bool: ...

    def __contains__(self, key: str) -> bool: ...

    def __len__(self) -> int: ...

    def clear(self) -> int: ...

    def stats(self) -> Dict[str, int]: ...

    def close(self) -> None: ...


class _StatsMixin:
    """Local counters + obs mirroring shared by every backend."""

    backend_name = "?"

    def _init_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt_discards = 0

    def _count(self, event: str, n: int = 1) -> None:
        setattr(self, event, getattr(self, event) + n)
        registry = _obs_get()
        if registry.enabled:
            registry.inc(f"svc.cache.{self.backend_name}.{event}", n)

    def stats(self) -> Dict[str, int]:
        return {
            "backend": self.backend_name,  # type: ignore[dict-item]
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt_discards": self.corrupt_discards,
        }

    def close(self) -> None:  # most backends hold no live resources
        pass


# -- directory ------------------------------------------------------------------


class DirectoryBackend(_StatsMixin, ResultCache):
    """The classic sharded directory cache, now namespaced and bounded.

    ``namespace=None`` keeps the exact historical on-disk layout
    (``<root>/<key[:2]>/<key>.json``) so existing caches keep hitting;
    a named namespace nests under ``<root>/<namespace>/`` so tenants
    (or unrelated projects) sharing one cache root cannot collide.

    ``max_entries`` / ``max_bytes`` bound the namespace with LRU
    eviction: reads refresh an entry's mtime, and a put that pushes the
    namespace over either bound deletes least-recently-used entries
    until it fits again.  Unbounded (the default) behaves exactly like
    :class:`ResultCache`.
    """

    backend_name = "directory"

    def __init__(
        self,
        root: Union[str, Path],
        namespace: Optional[str] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        root = Path(root)
        if namespace:
            if any(ch in namespace for ch in "/\\") or namespace.startswith("."):
                raise ValueError(f"invalid cache namespace {namespace!r}")
            root = root / namespace
        super().__init__(root)
        self.namespace = namespace
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._init_stats()

    def _count_corrupt(self) -> None:
        super()._count_corrupt()  # runner.cache_corrupt_discards + attr
        registry = _obs_get()
        if registry.enabled:
            registry.inc(f"svc.cache.{self.backend_name}.corrupt_discards")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        entry = super().get(key)
        if entry is None:
            self._count("misses")
            return None
        self._count("hits")
        if self.max_entries is not None or self.max_bytes is not None:
            try:  # refresh LRU position; best-effort
                os.utime(self._path(key))
            except OSError:
                pass
        return entry

    def put_entry(self, key: str, entry: Dict[str, Any]) -> None:
        if not validate_entry(key, entry):
            raise ValueError(f"malformed cache entry for key {key[:12]}...")
        # Reuse the atomic tmp-file + os.replace write of ResultCache.put
        # but with the caller's entry document verbatim.
        import tempfile

        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{key[:8]}-", suffix=".tmp",
                                   dir=path.parent)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._evict_if_needed()

    def put(
        self,
        key: str,
        point: Optional[SweepPoint],
        payload: Any,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.put_entry(key, build_entry(key, point, payload, meta))

    def discard(self, key: str) -> bool:
        path = self._path(key)
        existed = path.is_file()
        self._discard(path)
        return existed

    # -- eviction -------------------------------------------------------------

    def _entries_by_age(self) -> Iterator[Tuple[float, int, Path]]:
        for path in self._iter_paths():
            try:
                st = path.stat()
            except OSError:
                continue
            yield (st.st_mtime, st.st_size, path)

    def _evict_if_needed(self) -> None:
        if self.max_entries is None and self.max_bytes is None:
            return
        # (mtime, name) ordering makes eviction deterministic even when
        # a filesystem's mtime granularity makes entries tie.
        aged = sorted(self._entries_by_age(), key=lambda e: (e[0], e[2].name))
        count = len(aged)
        total = sum(size for _, size, _ in aged)
        for mtime, size, path in aged:
            over_count = self.max_entries is not None and count > self.max_entries
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            if not (over_count or over_bytes):
                break
            self._discard(path)
            self._count("evictions")
            count -= 1
            total -= size


# -- memory ---------------------------------------------------------------------


class MemoryBackend(_StatsMixin):
    """Process-local LRU store — the zero-IO backend for tests and the
    cache daemon's default backing store."""

    backend_name = "memory"

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, Tuple[int, Dict[str, Any]]]" = OrderedDict()
        self._total_bytes = 0
        self._lock = threading.Lock()
        self._init_stats()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            item = self._entries.get(key)
            if item is None:
                self._count("misses")
                return None
            nbytes, entry = item
            if not validate_entry(key, entry):
                del self._entries[key]
                self._total_bytes -= nbytes
                self._count("corrupt_discards")
                self._count("misses")
                return None
            self._entries.move_to_end(key)
            self._count("hits")
            return entry

    def put_entry(self, key: str, entry: Dict[str, Any]) -> None:
        if not validate_entry(key, entry):
            raise ValueError(f"malformed cache entry for key {key[:12]}...")
        nbytes = len(json.dumps(entry, separators=(",", ":")))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._total_bytes -= old[0]
            self._entries[key] = (nbytes, entry)
            self._total_bytes += nbytes
            self._evict_locked()

    def put(
        self,
        key: str,
        point: Optional[SweepPoint],
        payload: Any,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.put_entry(key, build_entry(key, point, payload, meta))

    def _evict_locked(self) -> None:
        while self._entries and (
            (self.max_entries is not None and len(self._entries) > self.max_entries)
            or (self.max_bytes is not None and self._total_bytes > self.max_bytes)
        ):
            _, (nbytes, _) = self._entries.popitem(last=False)
            self._total_bytes -= nbytes
            self._count("evictions")

    def discard(self, key: str) -> bool:
        with self._lock:
            item = self._entries.pop(key, None)
            if item is not None:
                self._total_bytes -= item[0]
            return item is not None

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> int:
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            self._total_bytes = 0
            return n

    def __repr__(self) -> str:
        return f"<MemoryBackend ({len(self._entries)} entries)>"


# -- sqlite ---------------------------------------------------------------------


class SqliteBackend(_StatsMixin):
    """One-file cache safe under concurrent sweep workers.

    WAL journaling plus a busy timeout lets many processes read and
    write the same file without corruption; LRU ordering uses a
    monotonically increasing access sequence stored per entry, so
    eviction order is deterministic (no wall-clock ties).
    """

    backend_name = "sqlite"

    def __init__(
        self,
        path: Union[str, Path],
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        timeout: float = 10.0,
    ) -> None:
        self.path = Path(path)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            str(self.path), timeout=timeout, check_same_thread=False
        )
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " key TEXT PRIMARY KEY,"
                " entry TEXT NOT NULL,"
                " nbytes INTEGER NOT NULL,"
                " seq INTEGER NOT NULL)"
            )
            self._conn.commit()
        self._init_stats()

    def _touch(self, key: str) -> None:
        self._conn.execute(
            "UPDATE entries SET seq ="
            " (SELECT COALESCE(MAX(seq), 0) + 1 FROM entries)"
            " WHERE key = ?",
            (key,),
        )

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            row = self._conn.execute(
                "SELECT entry FROM entries WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                self._count("misses")
                return None
            try:
                entry = json.loads(row[0])
            except ValueError:
                entry = None
            if not validate_entry(key, entry):
                self._conn.execute("DELETE FROM entries WHERE key = ?", (key,))
                self._conn.commit()
                self._count("corrupt_discards")
                self._count("misses")
                return None
            self._touch(key)
            self._conn.commit()
            self._count("hits")
            return entry

    def put_entry(self, key: str, entry: Dict[str, Any]) -> None:
        if not validate_entry(key, entry):
            raise ValueError(f"malformed cache entry for key {key[:12]}...")
        blob = json.dumps(entry, separators=(",", ":"))
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO entries (key, entry, nbytes, seq)"
                " VALUES (?, ?, ?,"
                "  (SELECT COALESCE(MAX(seq), 0) + 1 FROM entries))",
                (key, blob, len(blob)),
            )
            self._evict_locked()
            self._conn.commit()

    def put(
        self,
        key: str,
        point: Optional[SweepPoint],
        payload: Any,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.put_entry(key, build_entry(key, point, payload, meta))

    def _evict_locked(self) -> None:
        if self.max_entries is None and self.max_bytes is None:
            return
        while True:
            count, total = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM entries"
            ).fetchone()
            over_count = self.max_entries is not None and count > self.max_entries
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            if not (over_count or over_bytes):
                return
            victim = self._conn.execute(
                "SELECT key FROM entries ORDER BY seq ASC, key ASC LIMIT 1"
            ).fetchone()
            if victim is None:
                return
            self._conn.execute("DELETE FROM entries WHERE key = ?", victim)
            self._count("evictions")

    def discard(self, key: str) -> bool:
        with self._lock:
            cur = self._conn.execute(
                "DELETE FROM entries WHERE key = ?", (key,)
            )
            self._conn.commit()
            return cur.rowcount > 0

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM entries"
            ).fetchone()[0]

    def clear(self) -> int:
        with self._lock:
            n = self._conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
            self._conn.execute("DELETE FROM entries")
            self._conn.commit()
            return n

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __repr__(self) -> str:
        return f"<SqliteBackend {self.path}>"


# -- http -----------------------------------------------------------------------


class HttpBackend(_StatsMixin):
    """Client for a ``repro serve-cache`` daemon.

    * **Read-through**: ``get`` asks the daemon first; a server hit is
      also written into the local ``fallback`` backend so later reads
      survive a daemon outage.  A server miss falls back locally.
    * **Write-behind**: ``put`` lands synchronously in the fallback
      (results are never lost) and is queued for a background uploader
      thread, so sweep throughput never waits on the network.
    * **Graceful degradation**: any connection failure marks the daemon
      down for ``cooldown`` seconds and the backend serves purely from
      the fallback; requests are retried per the :class:`RetryPolicy`
      before degrading.  A sweep against a dead daemon completes
      exactly like a local one.
    """

    backend_name = "http"

    def __init__(
        self,
        url: str,
        fallback: Optional[CacheBackend] = None,
        retry: Optional[RetryPolicy] = None,
        timeout: float = 5.0,
        cooldown: float = 30.0,
        write_behind: bool = True,
    ) -> None:
        from urllib.parse import urlsplit

        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("http", ""):
            raise ValueError(f"unsupported cache URL scheme {parts.scheme!r}")
        if not parts.hostname:
            raise ValueError(f"cache URL {url!r} has no host")
        self.host = parts.hostname
        self.port = parts.port or 8750
        self.url = f"http://{self.host}:{self.port}"
        self.fallback = fallback
        self.retry = retry or RetryPolicy(max_attempts=2, backoff=0.05)
        self.timeout = timeout
        self.cooldown = cooldown
        self._down_until = 0.0
        self._init_stats()
        self.degraded_requests = 0
        self._queue: "queue.Queue[Optional[Tuple[str, Dict[str, Any]]]]" = queue.Queue()
        self._uploader: Optional[threading.Thread] = None
        if write_behind:
            self._uploader = threading.Thread(
                target=self._upload_loop, name="repro-cache-uploader", daemon=True
            )
            self._uploader.start()

    # -- raw HTTP -------------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        """One HTTP round trip with retry; raises ConnectionError after
        the policy's budget is spent."""
        import http.client

        last: Optional[Exception] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
                try:
                    headers = {}
                    if body is not None:
                        headers["Content-Type"] = "application/json"
                    conn.request(method, path, body=body, headers=headers)
                    resp = conn.getresponse()
                    return resp.status, resp.read()
                finally:
                    conn.close()
            except (OSError, http.client.HTTPException) as exc:
                last = exc
                if self.retry.should_retry(attempt):
                    delay = self.retry.delay(attempt, path)
                    if delay > 0.0:
                        time.sleep(delay)
        raise ConnectionError(f"cache daemon {self.url} unreachable: {last}")

    def _available(self) -> bool:
        return time.monotonic() >= self._down_until

    def _degrade(self) -> None:
        self._down_until = time.monotonic() + self.cooldown
        self.degraded_requests += 1
        registry = _obs_get()
        if registry.enabled:
            registry.inc("svc.cache.http.degraded")

    # -- protocol -------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        if self._available():
            try:
                status, data = self._request("GET", f"/cache/{key}")
            except ConnectionError:
                self._degrade()
            else:
                if status == 200:
                    try:
                        entry = json.loads(data.decode("utf-8"))
                    except (ValueError, UnicodeDecodeError):
                        entry = None
                    if validate_entry(key, entry):
                        self._count("hits")
                        if self.fallback is not None and key not in self.fallback:
                            self.fallback.put_entry(key, entry)
                        return entry
                    self._count("corrupt_discards")
                    try:
                        self._request("DELETE", f"/cache/{key}")
                    except ConnectionError:
                        self._degrade()
                # 404 (or corrupt): fall through to the local fallback.
        if self.fallback is not None:
            entry = self.fallback.get(key)
            if entry is not None:
                self._count("hits")
                return entry
        self._count("misses")
        return None

    def put_entry(self, key: str, entry: Dict[str, Any]) -> None:
        if not validate_entry(key, entry):
            raise ValueError(f"malformed cache entry for key {key[:12]}...")
        if self.fallback is not None:
            self.fallback.put_entry(key, entry)
        if self._uploader is not None:
            self._queue.put((key, entry))
        else:
            self._upload(key, entry)

    def put(
        self,
        key: str,
        point: Optional[SweepPoint],
        payload: Any,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.put_entry(key, build_entry(key, point, payload, meta))

    def _upload(self, key: str, entry: Dict[str, Any]) -> None:
        if not self._available():
            return
        blob = json.dumps(entry, separators=(",", ":")).encode("utf-8")
        try:
            self._request("PUT", f"/cache/{key}", body=blob)
        except ConnectionError:
            self._degrade()

    def _upload_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            self._upload(*item)
            self._queue.task_done()

    def flush(self, timeout: float = 10.0) -> None:
        """Block until queued write-behind uploads are on the wire."""
        if self._uploader is None:
            return
        deadline = time.monotonic() + timeout
        while not self._queue.empty() and time.monotonic() < deadline:
            time.sleep(0.01)

    def discard(self, key: str) -> bool:
        dropped = False
        if self._available():
            try:
                status, _ = self._request("DELETE", f"/cache/{key}")
                dropped = status in (200, 204)
            except ConnectionError:
                self._degrade()
        if self.fallback is not None:
            dropped = self.fallback.discard(key) or dropped
        return dropped

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        if self._available():
            try:
                status, data = self._request("GET", "/stats")
                if status == 200:
                    return int(json.loads(data.decode("utf-8"))["entries"])
            except (ConnectionError, ValueError, KeyError):
                self._degrade()
        return len(self.fallback) if self.fallback is not None else 0  # type: ignore[arg-type]

    def clear(self) -> int:
        n = 0
        if self._available():
            try:
                status, data = self._request("POST", "/clear")
                if status == 200:
                    n = int(json.loads(data.decode("utf-8"))["cleared"])
            except (ConnectionError, ValueError, KeyError):
                self._degrade()
        if self.fallback is not None:
            n = max(n, self.fallback.clear())
        return n

    def close(self) -> None:
        if self._uploader is not None:
            self.flush()
            self._queue.put(None)
            self._uploader.join(timeout=5.0)
            self._uploader = None
        if self.fallback is not None:
            self.fallback.close()

    def __repr__(self) -> str:
        state = "up" if self._available() else "degraded"
        return f"<HttpBackend {self.url} ({state})>"


# -- factory --------------------------------------------------------------------


def make_cache_backend(
    spec: Union[str, Path, CacheBackend, None],
    fallback_dir: Union[str, Path, None] = None,
) -> Optional[CacheBackend]:
    """Build a backend from a CLI spec string (see module docstring).

    ``fallback_dir`` seeds the local fallback of an ``http://`` backend
    (defaults to the standard sweep cache directory) so a daemon outage
    degrades to the plain directory cache.
    """
    if spec is None or isinstance(spec, CacheBackend):
        return spec
    if isinstance(spec, Path):
        return DirectoryBackend(spec)
    text = str(spec)
    if text == "memory":
        return MemoryBackend()
    if text.startswith("dir:"):
        return DirectoryBackend(text[len("dir:"):])
    if text.startswith("sqlite:"):
        return SqliteBackend(text[len("sqlite:"):])
    if text.startswith(("http://", "https://")):
        from ..runner.cache import default_cache_dir

        root = Path(fallback_dir) if fallback_dir is not None else default_cache_dir()
        return HttpBackend(text, fallback=DirectoryBackend(root))
    # A bare path is the historical --cache-dir behaviour.
    return DirectoryBackend(text)
