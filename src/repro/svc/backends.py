"""Pluggable cache backends for sweep results.

The runner's :class:`~repro.runner.cache.ResultCache` is the directory
store; this module adds the small :class:`CacheBackend` protocol it
satisfies and stores that keep the same content-addressed entries in
memory, in a single SQLite file shared by concurrent workers, or behind
a small HTTP daemon shared by machines — without the runner caring
which.

All backends store the *same entry shape*
(:func:`~repro.runner.cache.build_entry`), validate it on read, and
turn corruption into a counted miss — never a crash, never a wrong
result.  Every backend also keeps local hit/miss/corruption counters
(:meth:`CacheBackend.stats`) and mirrors them into the :mod:`repro.obs`
registry as ``svc.cache.*`` counters when observation is enabled.

Backends are addressed by short spec strings (the CLI's
``--cache-backend``)::

    dir:/path/to/cache          sharded directory (ResultCache)
    memory                      process-local dict
    sqlite:/path/cache.db       single file, WAL, multi-process safe
    http://host:8750            client for a `repro serve-cache` daemon

:func:`make_cache_backend` parses these.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Protocol, Tuple, Union, runtime_checkable

from ..obs import get as _obs_get
from ..runner.cache import CacheStore, ResultCache, validate_entry
from ..runner.point import SweepPoint
from ..runner.retry import RetryPolicy

__all__ = [
    "CacheBackend",
    "MemoryBackend",
    "SqliteBackend",
    "HttpBackend",
    "make_cache_backend",
]


@runtime_checkable
class CacheBackend(Protocol):
    """What the runner (and the cache daemon) need from a result store;
    :class:`~repro.runner.cache.ResultCache` is the directory one."""

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

    def stats(self) -> Dict[str, Any]: ...

    def close(self) -> None: ...


# -- memory ---------------------------------------------------------------------


class MemoryBackend(CacheStore):
    """Process-local store — the zero-IO backend for tests and the
    cache daemon's default backing store."""

    backend_name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._count("misses")
                return None
            if not validate_entry(key, entry):
                del self._entries[key]
                self._count("corrupt_discards")
                self._count("misses")
                return None
            self._count("hits")
            return entry

    def put_entry(self, key: str, entry: Dict[str, Any]) -> None:
        if not validate_entry(key, entry):
            raise ValueError(f"malformed cache entry for key {key[:12]}...")
        with self._lock:
            self._entries[key] = entry

    def discard(self, key: str) -> bool:
        with self._lock:
            return self._entries.pop(key, None) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> int:
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            return n

    def __repr__(self) -> str:
        return f"<MemoryBackend ({len(self._entries)} entries)>"


# -- sqlite ---------------------------------------------------------------------


class SqliteBackend(CacheStore):
    """One-file cache safe under concurrent sweep workers.

    WAL journaling plus a busy timeout lets many processes read and
    write the same file without corruption.
    """

    backend_name = "sqlite"

    def __init__(self, path: Union[str, Path], timeout: float = 10.0) -> None:
        import sqlite3  # only this store needs it

        super().__init__()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            str(self.path), timeout=timeout, check_same_thread=False
        )
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("BEGIN IMMEDIATE")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " key TEXT PRIMARY KEY,"
                " entry TEXT NOT NULL)"
            )
            # Files written while this store had LRU bounds carry two
            # NOT NULL bookkeeping columns that would reject our inserts.
            columns = {row[1] for row in
                       self._conn.execute("PRAGMA table_info(entries)")}
            for legacy in sorted(columns & {"nbytes", "seq"}):
                self._conn.execute(f"ALTER TABLE entries DROP COLUMN {legacy}")
            self._conn.commit()

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
            self._count("hits")
            return entry

    def put_entry(self, key: str, entry: Dict[str, Any]) -> None:
        if not validate_entry(key, entry):
            raise ValueError(f"malformed cache entry for key {key[:12]}...")
        blob = json.dumps(entry, separators=(",", ":"))
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO entries (key, entry) VALUES (?, ?)",
                (key, blob),
            )
            self._conn.commit()

    def discard(self, key: str) -> bool:
        with self._lock:
            cur = self._conn.execute(
                "DELETE FROM entries WHERE key = ?", (key,)
            )
            self._conn.commit()
            return cur.rowcount > 0

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


class HttpBackend(CacheStore):
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

        super().__init__()
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
        # unfinished_tasks drops only after task_done(), i.e. once the
        # uploader has sent the item it dequeued, not when it takes it.
        while self._queue.unfinished_tasks and time.monotonic() < deadline:
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
    degrades to the plain directory cache.  Raises ValueError for a
    URL scheme other than ``http`` and OSError when a store cannot be
    opened.
    """
    if spec is None or isinstance(spec, CacheBackend):
        return spec
    if isinstance(spec, Path):
        return ResultCache(spec)
    text = str(spec)
    if text == "memory":
        return MemoryBackend()
    if text.startswith("dir:"):
        return ResultCache(text[len("dir:"):])
    if text.startswith("sqlite:"):
        return SqliteBackend(text[len("sqlite:"):])
    if "://" in text:  # HttpBackend rejects every scheme but http
        from ..runner.cache import default_cache_dir

        root = Path(fallback_dir) if fallback_dir is not None else default_cache_dir()
        return HttpBackend(text, fallback=ResultCache(root))
    # A bare path is the historical --cache-dir behaviour.
    return ResultCache(text)
