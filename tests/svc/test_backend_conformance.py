"""Conformance suite of the directory result cache.

The runner's :class:`ResultCache` must round-trip entries, treat
corruption as a counted miss (never a wrong result), survive concurrent
writers, and clear.  The suite runs through one parametrized rig.
"""

import hashlib
import threading
from pathlib import Path

import pytest

from repro.runner import ResultCache, SweepPoint, point_key
from repro.runner.cache import build_entry, validate_entry

BACKENDS = ["directory"]


def key_for(i):
    return hashlib.sha256(f"conformance-{i}".encode()).hexdigest()


class Rig:
    """A backend plus the backend-specific knobs the suite needs."""

    def __init__(self, backend, corrupt, corrupt_count):
        self.backend = backend
        self.corrupt = corrupt            # damage the stored entry for a key
        self.corrupt_count = corrupt_count  # corrupt discards observed so far


@pytest.fixture(params=BACKENDS)
def rig(request, tmp_path):
    backend = ResultCache(tmp_path / "dcache")
    return Rig(
        backend,
        corrupt=lambda key: Path(backend._path(key)).write_text(
            "{ not json !!", encoding="utf-8"),
        corrupt_count=lambda: backend.corrupt_discards,
    )


def _cell():
    return SweepPoint.policy_cell("smg98", "Full", 4, scale=0.05, seed=3)


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
    assert rig.backend.hits >= 1 and rig.backend.misses >= 1


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


def test_validate_entry():
    key = key_for(7000)
    assert validate_entry(key, build_entry(key, None, 1))
    assert not validate_entry(key, {"key": key})
    assert not validate_entry(key, {"key": "other", "payload": 1})
    assert not validate_entry(key, "not a dict")
