"""The repro.obs metrics layer: registry semantics, null backend,
engine/runner integration, and the obs-on == obs-off guarantee."""

import io
import json

import pytest

from repro import obs
from repro.obs import OFF, Histogram, MetricsRegistry, merge_snapshots
from repro.runner import MetricsCollector, SweepPoint, SweepRunner
from repro.runner.worker import execute_point
from repro.simt import Environment


@pytest.fixture(autouse=True)
def _obs_stays_off():
    """Every test must leave the process-local registry disabled."""
    assert obs.get() is OFF
    yield
    assert obs.get() is OFF


# -------------------------------------------------------------- the registry


def test_counters_and_gauges():
    reg = MetricsRegistry()
    reg.inc("a")
    reg.inc("a")
    reg.inc("b", 5)
    reg.gauge_set("g", 3.0)
    reg.gauge_set("g", 1.0)
    reg.gauge_max("h", 3.0)
    reg.gauge_max("h", 1.0)
    snap = reg.snapshot()
    assert snap["counters"] == {"a": 2, "b": 5}
    assert snap["gauges"] == {"g": 1.0, "h": 3.0}


def test_histogram_buckets_are_inclusive_upper_bounds():
    h = Histogram((10, 100))
    for v in (0, 10, 11, 100, 101, 5000):
        h.observe(v)
    # <=10: {0, 10}; <=100: {11, 100}; overflow: {101, 5000}
    assert h.counts == [2, 2, 2]
    assert h.count == 6 and h.total == sum((0, 10, 11, 100, 101, 5000))


def test_histogram_rejects_bad_edges():
    with pytest.raises(ValueError):
        Histogram(())
    with pytest.raises(ValueError):
        Histogram((10, 5))


def test_observe_ignores_edges_after_creation():
    reg = MetricsRegistry()
    reg.observe("x", 1.0, edges=(10, 100))
    reg.observe("x", 2.0, edges=(999,))  # ignored; same histogram
    assert reg.histograms["x"].edges == (10, 100)
    assert reg.histograms["x"].count == 2


def test_span_aggregates_count_total_max():
    reg = MetricsRegistry()
    for d in (1.0, 3.0, 2.0):
        reg.span("phase", d)
    snap = reg.snapshot()
    assert snap["spans"]["phase"] == {"count": 3, "total": 6.0, "max": 3.0}


def test_snapshot_is_json_safe_and_sorted():
    reg = MetricsRegistry()
    reg.inc("z")
    reg.inc("a")
    reg.observe("hist", 2.0, edges=(1, 4))
    reg.span("s", 0.5)
    snap = reg.snapshot()
    assert list(snap["counters"]) == ["a", "z"]
    assert json.loads(json.dumps(snap)) == snap


def test_merge_snapshot_semantics():
    a = MetricsRegistry()
    a.inc("n", 2)
    a.gauge_max("depth", 5)
    a.observe("sizes", 3.0, edges=(10,))
    a.span("wire", 1.0)

    b = MetricsRegistry()
    b.inc("n", 3)
    b.gauge_max("depth", 4)
    b.observe("sizes", 50.0, edges=(10,))
    b.span("wire", 2.5)

    a.merge_snapshot(b.snapshot())
    snap = a.snapshot()
    assert snap["counters"]["n"] == 5  # counters add
    assert snap["gauges"]["depth"] == 5  # gauges keep the max
    assert snap["histograms"]["sizes"]["counts"] == [1, 1]
    assert snap["spans"]["wire"] == {"count": 2, "total": 3.5, "max": 2.5}


def test_merge_snapshot_rejects_mismatched_edges():
    a = MetricsRegistry()
    a.observe("sizes", 1.0, edges=(10,))
    b = MetricsRegistry()
    b.observe("sizes", 1.0, edges=(99,))
    with pytest.raises(ValueError, match="sizes"):
        a.merge_snapshot(b.snapshot())


def test_merge_snapshot_rejects_mismatched_bucket_counts():
    a = MetricsRegistry()
    a.observe("sizes", 1.0, edges=(10, 20))
    snap = MetricsRegistry().snapshot()
    # Same edges, truncated counts array: zip() would silently drop the
    # overflow bucket, so the merge must refuse instead.
    snap["histograms"] = {
        "sizes": {"edges": [10, 20], "counts": [1, 2], "count": 3, "total": 9.0}
    }
    with pytest.raises(ValueError, match="bucket counts"):
        a.merge_snapshot(snap)


def test_merge_empty_snapshot_is_identity():
    a = MetricsRegistry()
    a.inc("n", 2)
    a.gauge_max("depth", 5)
    a.observe("sizes", 3.0, edges=(10,))
    a.span("wire", 1.0)
    before = a.snapshot()
    a.merge_snapshot(MetricsRegistry().snapshot())
    assert a.snapshot() == before


def test_merge_snapshots_helper_and_reset():
    a = MetricsRegistry()
    a.inc("n")
    b = MetricsRegistry()
    b.inc("n", 9)
    assert merge_snapshots([a.snapshot(), b.snapshot()])["counters"]["n"] == 10
    a.reset()
    assert a.snapshot() == MetricsRegistry().snapshot()


def test_null_registry_is_inert():
    """Off is the one shared OFF sink: flags only, so an instrument call
    that skipped its ``enabled`` guard fails loudly."""
    from repro.obs import timeseries, trace
    from repro.replay import hooks

    assert obs.get() is trace.get() is timeseries.get() is hooks.get() is OFF
    assert not OFF.enabled and not OFF.fine
    for method in ("inc", "gauge_max", "span", "snapshot", "complete",
                   "record", "on_event"):
        with pytest.raises(AttributeError):
            getattr(OFF, method)


def test_collecting_restores_previous_registry():
    with obs.collecting() as inner:
        assert obs.get() is inner and inner.enabled
        with obs.collecting() as nested:
            assert obs.get() is nested
        assert obs.get() is inner
    assert obs.get() is OFF

    mine = MetricsRegistry()
    with pytest.raises(RuntimeError):
        with obs.collecting(mine) as reg:
            assert reg is mine and obs.get() is mine
            raise RuntimeError("boom")
    assert obs.get() is OFF


# ----------------------------------------------------- engine instrumentation


def test_engine_counts_events_and_queue_depth():
    with obs.collecting() as reg:
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            yield env.timeout(1.0)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
    snap = reg.snapshot()
    assert snap["counters"]["simt.events"] == env.events_processed
    assert snap["gauges"]["simt.queue_depth_hwm"] >= 2


def test_environment_captures_registry_at_construction():
    env = Environment()  # built while observation is off
    with obs.collecting() as reg:

        def proc(env):
            yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
    assert "simt.events" not in reg.snapshot()["counters"]
    assert env.events_processed > 0


# ------------------------------------------------------- worker / runner path


def test_worker_envelope_carries_obs_snapshot():
    point = SweepPoint.confsync(2, reps=2)
    envelope = execute_point(point, collectors=[MetricsCollector()])
    assert envelope["status"] == "ok"
    counters = envelope["attachments"]["obs"]["counters"]
    assert counters["simt.events"] > 0
    assert counters["mpi.eager_sends"] > 0
    assert counters["vt.records"] > 0
    # Collection must not leak a live registry into the worker process.
    assert obs.get() is OFF


def test_worker_envelope_has_no_obs_by_default():
    envelope = execute_point(SweepPoint.confsync(2, reps=2))
    assert envelope["status"] == "ok"
    assert "attachments" not in envelope


def test_runner_merges_point_snapshots_and_reports_them():
    stream = io.StringIO()
    metrics = MetricsCollector()
    runner = SweepRunner(telemetry=stream, collectors=[metrics])
    points = [SweepPoint.confsync(2, reps=2), SweepPoint.confsync(4, reps=2)]
    results = runner.run(points)
    assert all(r.ok for r in results.values())

    merged = metrics.registry.snapshot()
    assert merged["counters"]["simt.events"] > 0
    assert merged["counters"]["vt.confsync_epochs"] >= 4  # 2 reps x 2 points

    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    point_events = [r for r in records if r.get("event") == "point"]
    assert len(point_events) == 2
    assert all("obs" in e for e in point_events)


def test_cached_points_contribute_no_obs(tmp_path):
    point = SweepPoint.confsync(2, reps=2)
    first = MetricsCollector()
    assert SweepRunner(cache=tmp_path, collectors=[first]).run([point])[point].ok
    assert first.registry.snapshot()["counters"]

    second = MetricsCollector()
    runner = SweepRunner(cache=tmp_path, collectors=[second])
    result = runner.run([point])[point]
    assert result.ok and result.cached
    assert second.registry.snapshot()["counters"] == {}


def test_payloads_identical_with_and_without_obs():
    point = SweepPoint.confsync(2, reps=2)
    plain = SweepRunner().run([point])[point]
    observed = SweepRunner(
        collectors=[MetricsCollector()]).run([point])[point]
    assert plain.payload == observed.payload


# ------------------------------------------------- figure-level equivalence


def test_fig7_bit_identical_with_obs_and_counters_cover_subsystems():
    """The acceptance criterion: observing a figure run changes nothing
    about the figure, and the snapshot covers simt, mpi and vt."""
    from repro.experiments.fig7 import run_fig7

    plain = run_fig7("smg98", cpu_counts=(1, 2), scale=0.02)
    metrics = MetricsCollector()
    runner = SweepRunner(collectors=[metrics])
    observed = run_fig7("smg98", cpu_counts=(1, 2), scale=0.02, runner=runner)
    assert observed.to_dict() == plain.to_dict()

    counters = metrics.registry.snapshot()["counters"]
    assert any(name.startswith("simt.") for name in counters)
    assert any(name.startswith("mpi.") for name in counters)
    assert any(name.startswith("vt.") for name in counters)
    assert any(name.startswith("dynprof.") for name in counters)


def test_cli_obs_flag_writes_metrics_document(tmp_path, capsys):
    from repro.experiments.cli import main

    out = tmp_path / "metrics.json"
    rc = main(["sweep",
        "--apps", "smg98", "--policies", "None", "--cpus", "2",
        "--scale", "0.02", "--no-cache", "--obs", str(out),
    ])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"version", "obs", "telemetry"}
    counters = doc["obs"]["counters"]
    assert counters["simt.events"] > 0
    assert any(name.startswith("mpi.") for name in counters)
    assert any(name.startswith("vt.") for name in counters)
    assert doc["telemetry"]["total"] == 1


def test_render_obs_report_lists_collected_metrics():
    from repro.analysis import render_obs_report

    reg = MetricsRegistry()
    reg.inc("simt.events", 1234)
    reg.gauge_max("simt.queue_depth_hwm", 17)
    reg.span("mpi.wire", 0.25)
    reg.observe("mpi.msg_bytes", 100.0, edges=(64, 256))
    text = render_obs_report(reg.snapshot())
    assert "simt.events" in text and "1,234" in text
    assert "high water" in text
    assert "mpi.wire" in text and "spans" in text
    assert "mpi.msg_bytes" in text

    assert "(no metrics collected)" in render_obs_report(MetricsRegistry().snapshot())
