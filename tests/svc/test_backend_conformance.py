"""One conformance suite, four cache backends.

Every :class:`CacheBackend` must behave identically from the runner's
point of view: round-trip entries, treat corruption as a counted miss
(never a wrong result), survive concurrent writers, and clear.  The
suite runs against directory (the runner's ``ResultCache``), memory,
SQLite and HTTP (a live in-thread daemon) through one parametrized rig.
"""

import hashlib
import json
import sqlite3
import threading
import time

import pytest

from repro.runner import ResultCache, SweepPoint, point_key
from repro.runner.cache import build_entry, validate_entry
from repro.svc import (
    CacheBackend,
    HttpBackend,
    MemoryBackend,
    SqliteBackend,
    make_cache_backend,
    serve_cache,
)

BACKENDS = ["directory", "memory", "sqlite", "http"]


def key_for(i):
    return hashlib.sha256(f"conformance-{i}".encode()).hexdigest()


class Rig:
    """A backend plus the backend-specific knobs the suite needs."""

    def __init__(self, backend, corrupt, corrupt_count, teardown=None,
                 strict_discard=True):
        self.backend = backend
        self.corrupt = corrupt            # damage the stored entry for a key
        self.corrupt_count = corrupt_count  # corrupt discards observed so far
        self.teardown = teardown
        #: HTTP DELETE is idempotent-204, so discard() of a missing key
        #: still reports True there; every local backend reports False.
        self.strict_discard = strict_discard


@pytest.fixture(params=BACKENDS)
def rig(request, tmp_path):
    if request.param == "directory":
        backend = ResultCache(tmp_path / "dcache")
        r = Rig(
            backend,
            corrupt=lambda key: backend._path(key).write_text(
                "{ not json !!", encoding="utf-8"),
            corrupt_count=lambda: backend.corrupt_discards,
        )
    elif request.param == "memory":
        backend = MemoryBackend()
        r = Rig(
            backend,
            corrupt=lambda key: backend._entries.__setitem__(
                key, {"bogus": True}),
            corrupt_count=lambda: backend.corrupt_discards,
        )
    elif request.param == "sqlite":
        backend = SqliteBackend(tmp_path / "cache.db")

        def corrupt(key):
            with backend._lock:
                backend._conn.execute(
                    "UPDATE entries SET entry = '{ not json' WHERE key = ?",
                    (key,))
                backend._conn.commit()

        r = Rig(backend, corrupt, lambda: backend.corrupt_discards)
    else:  # http
        store = MemoryBackend()
        daemon = serve_cache(port=0, backend=store)
        daemon.serve_in_thread()
        port = daemon.server_address[1]
        backend = HttpBackend(f"http://127.0.0.1:{port}", fallback=None,
                              write_behind=False)

        def teardown():
            backend.close()
            daemon.shutdown()
            daemon.server_close()

        # Corruption lives server-side: the daemon's store discards and
        # counts it, and the client observes a plain miss.
        r = Rig(
            backend,
            corrupt=lambda key: store._entries.__setitem__(
                key, {"bogus": True}),
            corrupt_count=lambda: store.corrupt_discards,
            teardown=teardown,
            strict_discard=False,
        )
    yield r
    if r.teardown is not None:
        r.teardown()
    else:
        r.backend.close()


def _cell():
    return SweepPoint.policy_cell("smg98", "Full", 4, scale=0.05, seed=3)


# --------------------------------------------------------------- protocol


def test_all_backends_satisfy_protocol(rig):
    assert isinstance(rig.backend, CacheBackend)


def test_result_cache_is_a_backend(tmp_path):
    # The runner's directory cache is the dir: store itself, not a
    # second class wrapping the same on-disk format.
    assert isinstance(ResultCache(tmp_path), CacheBackend)


# --------------------------------------------------------------- round trip


def test_put_get_round_trip(rig):
    point = _cell()
    key = point_key(point)
    assert rig.backend.get(key) is None
    rig.backend.put(key, point, {"time": 1.25, "trace_records": 7})
    entry = rig.backend.get(key)
    assert entry["key"] == key
    assert entry["payload"] == {"time": 1.25, "trace_records": 7}
    assert entry["point"]["app"] == "smg98"
    assert key in rig.backend
    assert len(rig.backend) == 1
    stats = rig.backend.stats()
    assert stats["hits"] >= 1 and stats["misses"] >= 1


def test_put_entry_stores_entry_verbatim(rig):
    key = key_for(0)
    entry = build_entry(key, None, {"answer": 42}, meta={"origin": "test"})
    rig.backend.put_entry(key, entry)
    got = rig.backend.get(key)
    assert got["payload"] == {"answer": 42}
    assert got["meta"] == {"origin": "test"}


def test_put_entry_rejects_malformed(rig):
    with pytest.raises(ValueError):
        rig.backend.put_entry(key_for(1), {"payload": 1})  # wrong key
    with pytest.raises(ValueError):
        rig.backend.put_entry(key_for(1), {"key": key_for(1)})  # no payload


# --------------------------------------------------------------- corruption


def test_corrupt_entry_is_counted_miss_then_recoverable(rig):
    key = key_for(2)
    rig.backend.put_entry(key, build_entry(key, None, {"v": 1}))
    assert rig.backend.get(key)["payload"] == {"v": 1}
    before = rig.corrupt_count()
    rig.corrupt(key)
    assert rig.backend.get(key) is None          # a miss, never garbage
    assert rig.corrupt_count() == before + 1     # ...and it was counted
    # The slot is usable again after the discard.
    rig.backend.put_entry(key, build_entry(key, None, {"v": 2}))
    assert rig.backend.get(key)["payload"] == {"v": 2}


# --------------------------------------------------------------- discard


def test_discard(rig):
    key = key_for(3)
    rig.backend.put_entry(key, build_entry(key, None, {"v": 1}))
    assert rig.backend.discard(key)
    assert rig.backend.get(key) is None
    if rig.strict_discard:
        assert rig.backend.discard(key) is False


# --------------------------------------------------------------- clear


def test_clear(rig):
    for i in range(3):
        k = key_for(10 + i)
        rig.backend.put_entry(k, build_entry(k, None, {"i": i}))
    assert len(rig.backend) == 3
    assert rig.backend.clear() == 3
    assert len(rig.backend) == 0
    assert rig.backend.get(key_for(10)) is None


# --------------------------------------------------------------- concurrency


def test_concurrent_writers_all_entries_survive(rig):
    n_threads, per_thread = 8, 10
    errors = []

    def writer(t):
        try:
            for i in range(per_thread):
                k = key_for(1000 + t * per_thread + i)
                rig.backend.put_entry(
                    k, build_entry(k, None, {"t": t, "i": i}))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,))
               for t in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors
    assert len(rig.backend) == n_threads * per_thread
    for t in range(n_threads):
        k = key_for(1000 + t * per_thread)
        assert rig.backend.get(k)["payload"]["t"] == t


# --------------------------------------------------------------- overwrite


def test_overwrite_does_not_evict(rig):
    # Re-putting one key replaces it in place and leaves its neighbours.
    keys = [key_for(3000 + i) for i in range(3)]
    for i, k in enumerate(keys):
        rig.backend.put_entry(k, build_entry(k, None, {"i": i}))
    for i in range(10):
        rig.backend.put_entry(keys[0], build_entry(keys[0], None, {"i": i}))
    assert rig.backend.get(keys[0])["payload"] == {"i": 9}
    assert rig.backend.get(keys[2])["payload"] == {"i": 2}
    assert len(rig.backend) == 3


# --------------------------------------------------------------- http extras


def test_http_read_through_populates_fallback(tmp_path):
    store = MemoryBackend()
    daemon = serve_cache(port=0, backend=store)
    daemon.serve_in_thread()
    port = daemon.server_address[1]
    fallback = MemoryBackend()
    client = HttpBackend(f"http://127.0.0.1:{port}", fallback=fallback,
                         write_behind=False)
    try:
        key = key_for(4000)
        store.put_entry(key, build_entry(key, None, {"v": "srv"}))
        assert client.get(key)["payload"] == {"v": "srv"}
        # The server hit was copied into the local fallback.
        assert fallback.get(key)["payload"] == {"v": "srv"}
    finally:
        client.close()
        daemon.shutdown()
        daemon.server_close()


def test_http_degrades_to_fallback_when_daemon_dies(tmp_path):
    store = MemoryBackend()
    daemon = serve_cache(port=0, backend=store)
    daemon.serve_in_thread()
    port = daemon.server_address[1]
    fallback = MemoryBackend()
    client = HttpBackend(f"http://127.0.0.1:{port}", fallback=fallback,
                         write_behind=False, cooldown=60.0)
    key = key_for(4001)
    try:
        client.put_entry(key, build_entry(key, None, {"v": 1}))
        assert client.get(key)["payload"] == {"v": 1}
    finally:
        daemon.shutdown()
        daemon.server_close()
    # Daemon is gone: the client degrades and keeps serving locally.
    assert client.get(key)["payload"] == {"v": 1}
    assert client.degraded_requests >= 1
    client.close()


class _SlowStore(MemoryBackend):
    """A daemon store whose writes take long enough to be caught
    mid-upload."""

    def put_entry(self, key, entry):
        time.sleep(0.3)
        super().put_entry(key, entry)


def test_http_flush_waits_for_the_upload_in_flight():
    # Regression: flush() polled queue.empty(), which is already true
    # while the uploader is still sending the item it just dequeued.
    store = _SlowStore()
    daemon = serve_cache(port=0, backend=store)
    daemon.serve_in_thread()
    client = HttpBackend(f"http://127.0.0.1:{daemon.server_address[1]}",
                         fallback=None)
    key = key_for(4002)
    try:
        client.put(key, None, {"v": 1})
        client.flush()
        assert store.get(key)["payload"] == {"v": 1}
    finally:
        client.close()
        daemon.shutdown()
        daemon.server_close()


def test_daemon_rejects_bad_keys_and_bodies():
    import http.client

    daemon = serve_cache(port=0)
    daemon.serve_in_thread()
    host, port = daemon.server_address[:2]
    try:
        conn = http.client.HTTPConnection(host, port, timeout=5)
        conn.request("GET", "/cache/not-a-key")
        assert conn.getresponse().status == 400
        conn.close()

        conn = http.client.HTTPConnection(host, port, timeout=5)
        key = key_for(5000)
        conn.request("PUT", f"/cache/{key}", body=b"{ nope",
                     headers={"Content-Type": "application/json"})
        assert conn.getresponse().status == 400
        conn.close()

        conn = http.client.HTTPConnection(host, port, timeout=5)
        conn.request("PUT", f"/cache/{key}",
                     body=json.dumps({"key": "0" * 64, "payload": 1}).encode())
        assert conn.getresponse().status == 400  # key/body mismatch
        conn.close()

        conn = http.client.HTTPConnection(host, port, timeout=5)
        conn.request("GET", "/healthz")
        assert conn.getresponse().status == 200
        conn.close()
    finally:
        daemon.shutdown()
        daemon.server_close()


# --------------------------------------------------------------- factory


def test_make_cache_backend_specs(tmp_path):
    assert make_cache_backend(None) is None
    assert isinstance(make_cache_backend("memory"), MemoryBackend)
    d = make_cache_backend(f"dir:{tmp_path / 'd'}")
    assert type(d) is ResultCache and d.root == tmp_path / "d"
    s = make_cache_backend(f"sqlite:{tmp_path / 'c.db'}")
    assert isinstance(s, SqliteBackend)
    s.close()
    bare = make_cache_backend(str(tmp_path / "bare"))
    assert type(bare) is ResultCache
    h = make_cache_backend("http://127.0.0.1:1", fallback_dir=tmp_path / "fb")
    assert isinstance(h, HttpBackend)
    assert type(h.fallback) is ResultCache
    assert h.fallback.root == tmp_path / "fb"
    h.close()
    with pytest.raises(ValueError, match="scheme 'https'"):
        make_cache_backend("https://h:1", fallback_dir=tmp_path / "fb")
    # An existing backend instance passes through untouched.
    m = MemoryBackend()
    assert make_cache_backend(m) is m


def test_sqlite_opens_files_with_the_lru_columns(tmp_path):
    # Files written while the store had LRU bounds carry NOT NULL
    # nbytes/seq columns; they must keep hitting and accept puts.
    path = tmp_path / "old.db"
    old_key, new_key = key_for(8000), key_for(8001)
    blob = json.dumps(build_entry(old_key, None, {"v": "old"}),
                      separators=(",", ":"))
    conn = sqlite3.connect(str(path))
    conn.execute(
        "CREATE TABLE IF NOT EXISTS entries ("
        " key TEXT PRIMARY KEY,"
        " entry TEXT NOT NULL,"
        " nbytes INTEGER NOT NULL,"
        " seq INTEGER NOT NULL)"
    )
    conn.execute("INSERT INTO entries VALUES (?, ?, ?, 1)",
                 (old_key, blob, len(blob)))
    conn.commit()
    conn.close()
    for _ in range(2):  # and opening an already-opened file again
        store = SqliteBackend(path)
        try:
            assert store.get(old_key)["payload"] == {"v": "old"}
            store.put_entry(new_key, build_entry(new_key, None, {"v": "new"}))
            assert store.get(new_key)["payload"] == {"v": "new"}
            assert len(store) == 2
        finally:
            store.close()


def test_validate_entry():
    key = key_for(7000)
    assert validate_entry(key, build_entry(key, None, 1))
    assert not validate_entry(key, {"key": key})
    assert not validate_entry(key, {"key": "other", "payload": 1})
    assert not validate_entry(key, "not a dict")
