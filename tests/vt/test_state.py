"""Tests for the VT process state: init, probe costs, records, stats."""

import pytest

from repro.cluster import Cluster, POWER3_SP, Task
from repro.program import ExecutableImage, ProcessImage, ProgramContext
from repro.simt import Environment
from repro.vt import (
    BatchPairRecord,
    EnterRecord,
    FunctionRegistry,
    LeaveRecord,
    TraceFile,
    VTConfig,
    VTProcessState,
)

SPEC = POWER3_SP.with_overrides(net_jitter=0.0)


def make_world(config=None, static=True, nfuncs=3):
    env = Environment()
    cluster = Cluster(env, SPEC, seed=2)
    exe = ExecutableImage("app")
    names = [f"fn{i}" for i in range(nfuncs)]
    for n in names:
        exe.define(n)
    if static:
        exe.instrument_statically()
    node = cluster.node(0)
    task = Task(env, node, "app[0]", SPEC)
    image = ProcessImage(env, exe, "app[0]")
    pctx = ProgramContext(env, task, image, SPEC)
    vt = VTProcessState(env, SPEC, image, 0, FunctionRegistry(), config)
    return env, task, pctx, vt, names


def test_initialize_registers_static_functions():
    env, task, pctx, vt, names = make_world()
    assert not vt.initialized
    vt.initialize(task)
    assert vt.initialized
    for name in names:
        assert pctx.image.func(name).fid is not None
    # Registration charged funcdef cost per function.
    assert task.pending == pytest.approx(len(names) * SPEC.vt_funcdef_cost)


def test_initialize_is_idempotent():
    env, task, pctx, vt, _ = make_world()
    vt.initialize(task)
    charged = task.pending
    vt.initialize(task)
    assert task.pending == charged


def test_probe_before_init_charges_lookup_only():
    env, task, pctx, vt, _ = make_world()
    fi = pctx.image.func("fn0")
    vt.probe_begin(pctx, fi)
    assert task.pending == pytest.approx(SPEC.vt_lookup_cost)
    assert vt.buffers == []


def test_active_probe_records_and_charges_active_cost():
    env, task, pctx, vt, _ = make_world()
    vt.initialize(task)
    base = task.pending
    fi = pctx.image.func("fn0")
    vt.probe_begin(pctx, fi)
    task.charge(1e-3)  # the body
    vt.probe_end(pctx, fi)
    assert task.pending - base == pytest.approx(2 * SPEC.vt_active_event_cost + 1e-3)
    buf = vt.buffers[0]
    assert len(buf.records) == 2
    assert isinstance(buf.records[0], EnterRecord)
    assert isinstance(buf.records[1], LeaveRecord)
    assert buf.records[1].t > buf.records[0].t


def test_deactivated_probe_charges_lookup_no_record():
    env, task, pctx, vt, _ = make_world(config=VTConfig.all_off())
    vt.initialize(task)
    base = task.pending
    fi = pctx.image.func("fn0")
    vt.probe_begin(pctx, fi)
    vt.probe_end(pctx, fi)
    assert task.pending - base == pytest.approx(2 * SPEC.vt_lookup_cost)
    assert vt.buffers == []  # no buffer was even created


def test_subset_config_splits_active_and_inactive():
    env, task, pctx, vt, _ = make_world(config=VTConfig.subset(["fn1"]))
    vt.initialize(task)
    assert vt.is_fid_active(pctx.image.func("fn1").fid)
    assert not vt.is_fid_active(pctx.image.func("fn0").fid)


def test_stats_accumulate_inclusive_time():
    env, task, pctx, vt, _ = make_world()
    vt.initialize(task)
    fi = pctx.image.func("fn0")
    for _ in range(3):
        vt.probe_begin(pctx, fi)
        task.charge(0.5)
        vt.probe_end(pctx, fi)
    rows = vt.stats_table()
    assert len(rows) == 1
    name, count, t = rows[0]
    assert name == "fn0" and count == 3
    assert t == pytest.approx(3 * (0.5 + SPEC.vt_active_event_cost))


def test_nested_calls_stats():
    env, task, pctx, vt, _ = make_world()
    vt.initialize(task)
    outer, inner = pctx.image.func("fn0"), pctx.image.func("fn1")
    vt.probe_begin(pctx, outer)
    task.charge(0.1)
    vt.probe_begin(pctx, inner)
    task.charge(0.2)
    vt.probe_end(pctx, inner)
    task.charge(0.1)
    vt.probe_end(pctx, outer)
    stats = {name: t for name, _c, t in vt.stats_table()}
    assert stats["fn1"] == pytest.approx(0.2 + SPEC.vt_active_event_cost)
    # Outer inclusive covers inner entirely.
    assert stats["fn0"] > stats["fn1"] + 0.2


def test_apply_config_rebuilds_table_and_bumps_epoch():
    env, task, pctx, vt, _ = make_world()
    vt.initialize(task)
    assert vt.epoch == 0
    fid = pctx.image.func("fn0").fid
    assert vt.is_fid_active(fid)
    vt.apply_config(VTConfig.all_off(), task=task)
    assert vt.epoch == 1
    assert not vt.is_fid_active(fid)
    vt.apply_config(VTConfig.all_on(), task=task)
    assert vt.is_fid_active(fid)
    assert vt.epoch == 2


def test_funcdef_dynamic_registration():
    env, task, pctx, vt, _ = make_world(static=False)
    vt.initialized = True  # bypass init path
    fid = vt.funcdef(task, "fn2")
    assert pctx.image.func("fn2").fid == fid
    # Registering again returns the same id.
    assert vt.funcdef(task, "fn2") == fid


def test_record_batch_pair_counts():
    env, task, pctx, vt, _ = make_world()
    vt.initialize(task)
    fi = pctx.image.func("fn0")
    vt.record_batch_pair(pctx, fi, 100, 1.0, 1e-5, 8e-6)
    buf = vt.buffers[0]
    assert len(buf.records) == 1
    rec = buf.records[0]
    assert isinstance(rec, BatchPairRecord)
    assert rec.record_count() == 200
    assert buf.raw_record_count == 200
    rows = vt.stats_table()
    assert rows[0][1] == 100
    assert rows[0][2] == pytest.approx(100 * 8e-6)


def test_batch_mark_pairs_begin_and_end():
    env, task, pctx, vt, _ = make_world()
    vt.initialize(task)
    fi = pctx.image.func("fn0")
    vt.batch_mark(pctx, fi, "begin", 50, 2.0, 1e-5)
    assert vt.buffers == [] or len(vt.buffers[0].records) == 0
    vt.batch_mark(pctx, fi, "end", 50, 2.0 + 7e-6, 1e-5)
    rec = vt.buffers[0].records[0]
    assert rec.n == 50
    assert rec.duration == pytest.approx(7e-6)


def test_batch_mark_inactive_is_dropped():
    env, task, pctx, vt, _ = make_world(config=VTConfig.all_off())
    vt.initialize(task)
    fi = pctx.image.func("fn0")
    vt.batch_mark(pctx, fi, "begin", 50, 2.0, 1e-5)
    vt.batch_mark(pctx, fi, "end", 50, 2.1, 1e-5)
    assert vt.buffers == []


def test_message_logging_respects_mpi_trace_flag():
    env, task, pctx, vt, _ = make_world()
    vt.initialize(task)
    vt.log_message(pctx, "send", 1, 0, 100)
    assert vt.buffers[0].records[-1].kind == "send"

    env2, task2, pctx2, vt2, _ = make_world(
        config=VTConfig(rules=[], mpi_trace=False)
    )
    vt2.initialize(task2)
    vt2.log_message(pctx2, "send", 1, 0, 100)
    assert vt2.buffers == []


def test_flush_to_trace_file():
    env, task, pctx, vt, _ = make_world()
    vt.initialize(task)
    fi = pctx.image.func("fn0")
    vt.probe_begin(pctx, fi)
    vt.probe_end(pctx, fi)
    trace = TraceFile("app")
    vt.flush_to(trace)
    assert trace.raw_record_count == 2
    assert trace.function_name(fi.fid) == "fn0"
    assert trace.size_bytes == 2 * trace.record_bytes


def test_stats_payload_scales_with_functions():
    env, task, pctx, vt, _ = make_world()
    vt.initialize(task)
    empty = vt.stats_payload_bytes()
    for name in ("fn0", "fn1"):
        fi = pctx.image.func(name)
        vt.probe_begin(pctx, fi)
        vt.probe_end(pctx, fi)
    assert vt.stats_payload_bytes() > empty


def test_flush_to_mirrors_only_raw_bytes_by_default():
    # The VGVZ encode is an O(records) pass, far above the registry's
    # dict-op budget, so obs-enabled runs get only the analytic counter.
    from repro import obs

    with obs.collecting() as registry:
        env, task, pctx, vt, _ = make_world()
        vt.initialize(task)
        fi = pctx.image.func("fn0")
        vt.probe_begin(pctx, fi)
        vt.probe_end(pctx, fi)
        trace = TraceFile("app")
        vt.flush_to(trace)
        counters = registry.snapshot()["counters"]
    assert counters["vt.trace_raw_bytes"] == trace.size_bytes
    assert "vt.trace_compact_bytes" not in counters


def test_flush_to_skips_compression_accounting_without_obs():
    env, task, pctx, vt, _ = make_world()
    vt.initialize(task)
    fi = pctx.image.func("fn0")
    vt.probe_begin(pctx, fi)
    vt.probe_end(pctx, fi)
    trace = TraceFile("app")
    vt.flush_to(trace)  # no registry installed: must not raise
    assert trace.raw_record_count == 2


# -- the deactivation table, shared across ranks -------------------------------


def _ranks(exe, n, config):
    env = Environment()
    cluster = Cluster(env, SPEC, seed=2)
    registry = FunctionRegistry()
    states = []
    for rank in range(n):
        task = Task(env, cluster.node(0), f"app[{rank}]", SPEC)
        image = ProcessImage(env, exe, f"app[{rank}]")
        vt = VTProcessState(env, SPEC, image, rank, registry, config)
        vt.initialize(task)
        states.append(vt)
    return states


def _reference_off(vt):
    """The table as ``is_active`` defines it, one symbol at a time."""
    return {fi.fid for fi in vt.image.functions.values()
            if fi.fid is not None and not vt.config.is_active(fi.name)}


SYMBOLS = ["main", "solve", "solve_x", "hypre_a", "hypre_b", "util[1]", "ÿ_x"]


@pytest.mark.parametrize("config", [
    VTConfig.all_on(),
    VTConfig.all_off(),
    VTConfig.subset(["solve", "hypre_b"]),
    VTConfig(rules=[("solve*", False), ("hypre_?", False), ("hypre_a", True),
                    ("util[[]1]", False)], default_on=True),
    VTConfig(rules=[("*_x", True), ("nothing*", True)], default_on=False),
], ids=["all-on", "all-off", "subset", "globs", "default-off"])
def test_table_matches_is_active_on_every_rank(config):
    exe = ExecutableImage("app")
    for name in SYMBOLS:
        exe.define(name)
    exe.instrument_statically()
    for vt in _ranks(exe, 3, config):
        assert vt._off == _reference_off(vt)


def test_each_glob_is_resolved_once_for_all_ranks(monkeypatch):
    import fnmatch

    calls = []
    real = fnmatch.fnmatchcase
    monkeypatch.setattr(fnmatch, "fnmatchcase",
                        lambda name, pat: calls.append(pat) or real(name, pat))
    exe = ExecutableImage("app")
    for name in SYMBOLS:
        exe.define(name)
    exe.instrument_statically()
    config = VTConfig(rules=[("*", False), ("solve*", True), ("main", True)])
    states = _ranks(exe, 4, config)
    for vt in states:  # a confsync epoch re-applies it on every rank
        vt.apply_config(config)
    # One pass over the symbol table per glob; "main" is an exact name.
    assert sorted(set(calls)) == ["*", "solve*"]
    assert len(calls) == 2 * len(SYMBOLS)
    for vt in states:
        assert vt._off == _reference_off(vt)


def test_table_follows_rules_changed_after_creation():
    exe = ExecutableImage("app")
    for name in SYMBOLS:
        exe.define(name)
    exe.instrument_statically()
    config = VTConfig.all_on()
    states = _ranks(exe, 2, config)
    assert all(vt._off == set() for vt in states)
    config.rules.append(("solve*", False))
    config.default_on = True
    for vt in states:
        vt.apply_config(config)
        assert vt._off == _reference_off(vt) != set()
    config.rules[-1] = ("hypre_*", False)
    for vt in states:
        vt.apply_config(config)
        assert vt._off == _reference_off(vt)
        names = {vt.registry.name_of(fid) for fid in vt._off}
        assert names == {"hypre_a", "hypre_b"}
