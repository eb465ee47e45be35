"""merge_snapshot under sampling: two workers' sampled runs merge into
one registry whose totals equal what the sampled series telescope to.

The runner merges per-point obs snapshots (`SweepRunner._finish`), and
the sampler turns the same registries into windowed series; these tests
pin that the two views stay mutually consistent — counter deltas sum to
the merged counters, gauge high-water marks survive the merge, and
histogram bucket alignment is enforced, sampler on or off."""

import pytest

from repro import obs
from repro.obs import OFF, MetricsRegistry
from repro.obs import timeseries
from repro.obs.timeseries import MetricsSampler, decode_series
from repro.simt import Environment


@pytest.fixture(autouse=True)
def _layers_stay_off():
    assert obs.get() is OFF and timeseries.get() is OFF
    yield
    assert obs.get() is OFF and timeseries.get() is OFF


def _sampled_run(increments, depth, interval=0.5):
    """One simulated 'worker': counts, a gauge, a histogram — sampled.

    Returns (registry snapshot, recorder snapshot).
    """
    with obs.collecting() as reg, timeseries.sampling(
            interval=interval) as rec:
        env = Environment()

        def workload():
            for i, n in enumerate(increments):
                reg.inc("work.items", n)
                reg.gauge_max("work.depth", depth + i)
                reg.observe("work.sizes", float(n), edges=(2, 8))
                yield env.timeout(interval)

        env.process(workload())
        sampler = MetricsSampler.install(env)
        env.run(until=env.timeout(len(increments) * interval))
        sampler.stop()
        env.run()
        sampler.finish()
        return reg.snapshot(), rec.snapshot()


def test_counter_deltas_sum_to_merged_counters():
    snap_a, ts_a = _sampled_run([1, 2, 3], depth=1)
    snap_b, ts_b = _sampled_run([10, 0, 5], depth=1)

    merged = MetricsRegistry()
    merged.merge_snapshot(snap_a)
    merged.merge_snapshot(snap_b)

    total_from_series = 0.0
    for ts in (ts_a, ts_b):
        _, deltas = decode_series(ts["series"]["counter:work.items"])
        total_from_series += sum(deltas)
    assert total_from_series == merged.counters["work.items"] == 21


def test_gauge_high_water_survives_merge_and_matches_series_max():
    snap_a, ts_a = _sampled_run([1, 1], depth=3)      # peaks at 4
    snap_b, ts_b = _sampled_run([1, 1, 1], depth=5)   # peaks at 7

    merged = MetricsRegistry()
    merged.merge_snapshot(snap_a)
    merged.merge_snapshot(snap_b)
    assert merged.gauges["work.depth"] == 7

    peaks = []
    for ts in (ts_a, ts_b):
        _, levels = decode_series(ts["series"]["gauge:work.depth"])
        peaks.append(max(levels))
    assert max(peaks) == merged.gauges["work.depth"]


def test_histogram_buckets_stay_aligned_across_sampled_merges():
    snap_a, _ = _sampled_run([1, 5], depth=0)   # buckets: <=2, <=8
    snap_b, _ = _sampled_run([9, 1], depth=0)   # overflow + <=2

    merged = MetricsRegistry()
    merged.merge_snapshot(snap_a)
    merged.merge_snapshot(snap_b)
    hist = merged.snapshot()["histograms"]["work.sizes"]
    assert hist["edges"] == [2, 8]
    assert hist["counts"] == [2, 1, 1]
    assert hist["count"] == 4


def test_mismatched_histogram_edges_refuse_to_merge():
    snap_a, _ = _sampled_run([1], depth=0)
    b = MetricsRegistry()
    b.observe("work.sizes", 1.0, edges=(99,))
    merged = MetricsRegistry()
    merged.merge_snapshot(snap_a)
    with pytest.raises(ValueError, match="work.sizes"):
        merged.merge_snapshot(b.snapshot())


def test_sampler_tick_counter_merges_like_any_counter():
    snap_a, ts_a = _sampled_run([1, 1], depth=0)
    snap_b, ts_b = _sampled_run([1, 1, 1, 1], depth=0)
    merged = MetricsRegistry()
    merged.merge_snapshot(snap_a)
    merged.merge_snapshot(snap_b)
    # Every tick the sampler took is accounted once in the merge.
    assert merged.counters["obs.sampler_ticks"] == \
        ts_a["samples"] + ts_b["samples"]


def test_merge_is_indifferent_to_sampling():
    """Sampler on vs off must not change what a registry merges to."""
    snap_sampled, _ = _sampled_run([2, 4], depth=1)

    with obs.collecting() as reg:
        env = Environment()

        def workload():
            for i, n in enumerate([2, 4]):
                reg.inc("work.items", n)
                reg.gauge_max("work.depth", 1 + i)
                reg.observe("work.sizes", float(n), edges=(2, 8))
                yield env.timeout(0.5)

        env.process(workload())
        env.run()
        snap_plain = reg.snapshot()

    # Identical except for the sampler's own footprint: its tick
    # counter, and the engine's simt.* event accounting (the wakeups
    # are real simulated events — the documented visibility).
    def app_view(table):
        return {k: v for k, v in table.items()
                if not k.startswith(("obs.", "simt."))}

    assert app_view(snap_sampled["counters"]) == \
        app_view(snap_plain["counters"])
    assert app_view(snap_sampled["gauges"]) == app_view(snap_plain["gauges"])
    assert snap_sampled["histograms"] == snap_plain["histograms"]
