"""Cache-key stability and on-disk cache robustness."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import IA32_LINUX, MACHINES, POWER3_SP
from repro.runner import ResultCache, SweepPoint, SweepRunner, point_key
from repro.runner.cache import build_entry


def _cell(**overrides):
    kw = dict(app="smg98", policy="Full", procs=4, scale=0.05, seed=3)
    kw.update(overrides)
    return SweepPoint.policy_cell(
        kw["app"], kw["policy"], kw["procs"],
        scale=kw["scale"], seed=kw["seed"],
        machine=kw.get("machine", POWER3_SP),
    )


# ----------------------------------------------------------- key stability


def test_key_stable_for_equal_points():
    assert point_key(_cell()) == point_key(_cell())
    assert _cell() == _cell() and hash(_cell()) == hash(_cell())


def test_key_stable_across_processes():
    code = (
        "from repro.runner import SweepPoint, point_key;"
        "p = SweepPoint.policy_cell('smg98', 'Full', 4, scale=0.05, seed=3);"
        "print(point_key(p))"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == point_key(_cell())


@pytest.mark.parametrize("change", [
    {"seed": 4},
    {"scale": 0.1},
    {"procs": 8},
    {"policy": "None"},
    {"app": "sweep3d"},
    {"machine": IA32_LINUX},
])
def test_key_changes_with_any_config_input(change):
    assert point_key(_cell(**change)) != point_key(_cell())


def test_key_changes_with_cost_model_override():
    ablated = POWER3_SP.with_overrides(vt_active_event_cost=3.2e-6)
    assert point_key(_cell(machine=ablated)) != point_key(_cell())


def test_key_changes_with_package_version():
    p = _cell()
    assert point_key(p, version="1.0.0") != point_key(p, version="9.9.9")


def test_confsync_params_are_order_canonical():
    a = SweepPoint("confsync", 8,
                   params=(("stats", True), ("change", False), ("reps", 4)))
    b = SweepPoint("confsync", 8,
                   params=(("reps", 4), ("change", False), ("stats", True)))
    assert a == b and point_key(a) == point_key(b)


def test_key_distinguishes_confsync_params():
    a = SweepPoint.confsync(8, change=False, reps=4)
    b = SweepPoint.confsync(8, change=True, reps=4)
    c = SweepPoint.confsync(8, change=False, reps=8)
    assert len({point_key(p) for p in (a, b, c)}) == 3


# Keys release 1.1.0 wrote its cache entries under.  If one changes,
# every existing cache silently turns into misses.
PINNED_KEYS = [
    (_cell(),
     "22f70ed92c9da975d3c54f99b5988d7d7f8c6da5b04e2689e1e68d8a0986713d"),
    (SweepPoint.confsync(8, change=True, stats=True, reps=4,
                         machine=IA32_LINUX),
     "035213957ee58eb19412540fb00887d716e05305c7aa73477d44d9efb96a5082"),
    (_cell(machine=POWER3_SP.with_overrides(vt_active_event_cost=3.2e-6)),
     "5de34fee0a04ab4724714cf567ccb4b8e1e30370682496c67bcc4eefdf0cc4f8"),
]


@pytest.mark.parametrize("point,digest", PINNED_KEYS,
                         ids=["power3-policy", "ia32-confsync", "ablated"])
def test_key_digest_is_pinned(point, digest):
    assert point_key(point, version="1.1.0") == digest


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_canonical_machine_equals_asdict(name):
    machine = MACHINES[name]
    doc = SweepPoint.confsync(2, machine=machine).canonical()["machine"]
    assert doc == dataclasses.asdict(machine)
    assert list(doc) == list(dataclasses.asdict(machine))


def test_cached_rerun_keys_each_point_once(tmp_path, monkeypatch):
    """The cache probe, the put and the telemetry event share one key."""
    import repro.runner.runner as runner_mod
    import repro.svc.executors as executors_mod
    from repro.experiments.cli import main

    keyed = []

    def counting_key(point, version=None):
        keyed.append(point)
        return point_key(point, version)

    monkeypatch.setattr(runner_mod, "point_key", counting_key)
    monkeypatch.setattr(executors_mod, "point_key", counting_key)
    argv = ["fig8", "--quick", "--jobs", "1", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    distinct = len(ResultCache(tmp_path))
    # Cold: once per point (a crash retry would key its point again;
    # none happen here).
    assert len(keyed) == len(set(keyed)) == distinct
    keyed.clear()
    assert main(argv) == 0
    assert len(keyed) == len(set(keyed)) == distinct


# ----------------------------------------------------------- the store


def test_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    p = _cell()
    key = point_key(p)
    assert cache.get(key) is None
    cache.put(key, p, {"time": 1.25, "trace_records": 7})
    entry = cache.get(key)
    assert entry["payload"] == {"time": 1.25, "trace_records": 7}
    assert entry["point"]["app"] == "smg98"
    assert key in cache and len(cache) == 1
    assert cache.clear() == 1 and len(cache) == 0


def test_entry_file_is_the_compact_json_of_the_entry(tmp_path):
    cache = ResultCache(tmp_path)
    p = _cell()
    key = point_key(p)
    meta = {"wall_time": 0.5}
    cache.put(key, p, {"time": 1.25}, meta=meta)
    entry = build_entry(key, p, {"time": 1.25}, meta)
    assert Path(cache._path(key)).read_text(encoding="utf-8") == json.dumps(entry)


def test_corrupted_entry_is_a_miss_and_discarded(tmp_path):
    cache = ResultCache(tmp_path)
    p = _cell()
    key = point_key(p)
    cache.put(key, p, {"time": 1.0})
    path = Path(cache._path(key))
    path.write_text("{ not json !!", encoding="utf-8")
    assert cache.get(key) is None
    assert not path.exists()


def test_entry_with_mismatched_key_is_discarded(tmp_path):
    cache = ResultCache(tmp_path)
    p = _cell()
    key = point_key(p)
    cache.put(key, p, {"time": 1.0})
    path = Path(cache._path(key))
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["key"] = "0" * 64
    path.write_text(json.dumps(entry), encoding="utf-8")
    assert cache.get(key) is None
    assert not path.exists()


def test_contains_is_consistent_with_get_on_corruption(tmp_path):
    """Regression: ``key in cache`` only checked ``is_file()``, so a
    corrupted entry read as present while ``get`` treated it as a miss."""
    cache = ResultCache(tmp_path)
    p = _cell()
    key = point_key(p)
    cache.put(key, p, {"time": 1.0})
    assert key in cache
    path = Path(cache._path(key))
    path.write_text("{ not json !!", encoding="utf-8")
    assert key not in cache
    # Containment validates like get: the corrupt file has been discarded.
    assert not path.exists()
    assert cache.get(key) is None


def test_tmp_droppings_are_not_entries(tmp_path):
    """Regression: interrupted-write ``.tmp`` files (and any dotfile)
    under a bucket directory must not count as entries."""
    cache = ResultCache(tmp_path)
    p = _cell()
    key = point_key(p)
    cache.put(key, p, {"time": 1.0})
    bucket = Path(cache._path(key)).parent
    orphan_tmp = bucket / f".{key[:8]}-orphan.tmp"
    orphan_tmp.write_text("partial write", encoding="utf-8")
    hidden_json = bucket / ".hidden.json"
    hidden_json.write_text("{}", encoding="utf-8")

    assert len(cache) == 1
    assert key in cache
    assert cache.clear() == 1
    assert len(cache) == 0
    # clear() also sweeps the stale temp files.
    assert not orphan_tmp.exists()


def test_corrupt_discards_are_counted(tmp_path):
    from repro import obs

    cache = ResultCache(tmp_path)
    p = _cell()
    key = point_key(p)
    cache.put(key, p, {"time": 1.0})
    assert cache.corrupt_discards == 0
    Path(cache._path(key)).write_text("{ not json !!", encoding="utf-8")
    with obs.collecting() as registry:
        assert cache.get(key) is None
    assert cache.corrupt_discards == 1
    assert registry.counters.get("svc.cache.directory.corrupt_discards") == 1

    # The mismatched-key corruption path counts too.
    cache.put(key, p, {"time": 1.0})
    entry = json.loads(Path(cache._path(key)).read_text(encoding="utf-8"))
    entry["key"] = "0" * 64
    Path(cache._path(key)).write_text(json.dumps(entry), encoding="utf-8")
    assert cache.get(key) is None
    assert cache.corrupt_discards == 2


def test_telemetry_summary_surfaces_corrupt_discards(tmp_path):
    point = SweepPoint.confsync(2, reps=2)
    SweepRunner(cache=tmp_path).run([point])
    path = Path(ResultCache(tmp_path)._path(point_key(point)))
    path.write_bytes(b"\x00\xffgarbage")

    runner = SweepRunner(cache=tmp_path)
    runner.run([point])
    summary = runner.telemetry.summary()
    assert summary["corrupt_discards"] == 1

    # A clean rerun reports zero even though the cache object remembers.
    rerun = SweepRunner(cache=tmp_path)
    rerun.run([point])
    assert rerun.telemetry.summary()["corrupt_discards"] == 0


def test_repr_is_constant_time(tmp_path, monkeypatch):
    """Regression: ``repr(cache)`` used to report ``len(self)``, which
    walks every entry on disk — logging a runner scanned the cache."""
    cache = ResultCache(tmp_path)
    p = _cell()
    cache.put(point_key(p), p, {"time": 1.0})

    def boom(self):
        raise AssertionError("repr must not scan the cache directory")

    monkeypatch.setattr(ResultCache, "__len__", boom)
    monkeypatch.setattr(ResultCache, "_iter_paths", boom)
    text = repr(cache)
    assert str(tmp_path) in text


def test_runner_recovers_from_corrupted_entry(tmp_path):
    """A damaged cache degrades to recomputation, not to a crash."""
    point = SweepPoint.confsync(2, reps=2)
    first = SweepRunner(cache=tmp_path).run([point])[point]
    assert first.ok and not first.cached

    path = Path(ResultCache(tmp_path)._path(point_key(point)))
    assert path.exists()
    path.write_bytes(b"\x00\xffgarbage")

    again = SweepRunner(cache=tmp_path).run([point])[point]
    assert again.ok and not again.cached
    assert again.payload == first.payload

    # ...and the recomputed entry is cached cleanly once more.
    third = SweepRunner(cache=tmp_path).run([point])[point]
    assert third.ok and third.cached
    assert third.payload == first.payload
