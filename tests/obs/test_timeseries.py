"""repro.obs.timeseries: rings, the lossless codec, sampler semantics,
and the disabled-mode zero-cost guarantee."""

import math

import pytest

from repro import obs
from repro.compact.container import DecodeError
from repro.obs import OFF, timeseries
from repro.obs.timeseries import (
    MetricsSampler,
    SeriesRing,
    TimeSeriesRecorder,
    decode_series,
    overhead_series,
    series_rows,
    timeseries_to_csv,
)
from repro.simt import Environment


@pytest.fixture(autouse=True)
def _sampling_stays_off():
    assert timeseries.get() is OFF
    yield
    assert timeseries.get() is OFF


# ------------------------------------------------------------------ the ring


def test_ring_bounds_and_counts_evictions():
    ring = SeriesRing("delta", capacity=3)
    for i in range(5):
        ring.append(float(i), 1.0)
    assert len(ring) == 3
    assert ring.dropped == 2
    assert ring.times == [2.0, 3.0, 4.0]
    # The running total survives eviction.
    assert ring.total == 5.0


def test_ring_codec_round_trips_bit_for_bit():
    ring = SeriesRing("rate", capacity=100)
    values = [0.0, 1e-300, math.pi, -2.5, 1e17, 0.1 + 0.2]
    for i, v in enumerate(values):
        ring.append(i * 0.25, v)
    doc = ring.to_dict()
    assert doc["codec"] == "dod-varint-b64"
    times, decoded = decode_series(doc)
    assert times == [i * 0.25 for i in range(len(values))]
    # Bit-exact, not approximately equal.
    assert [v.hex() for v in decoded] == [v.hex() for v in values]


def test_decode_rejects_unknown_codec_and_trailing_bytes():
    ring = SeriesRing("delta", capacity=4)
    ring.append(1.0, 2.0)
    doc = ring.to_dict()
    with pytest.raises(ValueError, match="codec"):
        decode_series({**doc, "codec": "gzip"})
    with pytest.raises(ValueError, match="trailing"):
        # Claiming fewer samples than were encoded leaves bytes behind.
        decode_series({**doc, "n": 0})


def test_decode_rejects_non_base64_characters():
    ring = SeriesRing("delta", capacity=4)
    for i in range(4):
        ring.append(0.25 * i, 1.0)
    doc = ring.to_dict()
    with pytest.raises(DecodeError, match="base64"):
        decode_series({**doc, "t": doc["t"][:4] + "*" + doc["t"][4:]})


def test_recorder_snapshot_round_trips_through_rows():
    rec = TimeSeriesRecorder(interval=0.5, capacity=16)
    rec.record("counter:x", "delta", 0.5, 3.0)
    rec.record("counter:x", "delta", 1.0, 2.0)
    rec.record("gauge:y", "level", 1.0, 7.0)
    rec.samples = 2
    doc = rec.snapshot()
    rows = list(series_rows(doc))
    assert rows == [
        ("counter:x", "delta", 0.5, 3.0),
        ("counter:x", "delta", 1.0, 2.0),
        ("gauge:y", "level", 1.0, 7.0),
    ]
    csv = timeseries_to_csv({"cell": doc})
    assert csv.splitlines()[0] == "label,series,kind,t,value"
    assert "cell,counter:x,delta,0.5,3.0" in csv


def test_recorder_validates_parameters():
    with pytest.raises(ValueError):
        TimeSeriesRecorder(interval=0.0)
    with pytest.raises(ValueError):
        TimeSeriesRecorder(capacity=0)


# ------------------------------------------------------- lifecycle discipline


def test_null_recorder_is_the_default_and_inert():
    rec = timeseries.get()
    assert rec is OFF and not rec.enabled
    # Off records nothing: a sampler that skipped its guard fails loudly.
    with pytest.raises(AttributeError):
        rec.record("counter:x", "delta", 1.0, 1.0)


def test_sampling_context_restores_previous_recorder():
    with timeseries.sampling(interval=0.1) as rec:
        assert timeseries.get() is rec
        assert rec.enabled
        with timeseries.sampling(interval=0.2) as inner:
            assert timeseries.get() is inner
        assert timeseries.get() is rec
    assert timeseries.get() is OFF


def test_sampling_alone_samples_a_private_registry():
    # The sampler samples the registry; without a live one the sampled
    # run used to crash on the switched-off sink.
    from repro.apps import get_app
    from repro.dynprof.policies import run_policy

    with timeseries.sampling(interval=0.5) as rec:
        run_policy(get_app("sweep3d"), "Full", 2, scale=0.02)
    assert rec.samples > 0
    assert "counter:simt.events" in rec.series
    assert obs.get() is OFF and timeseries.get() is OFF


def test_install_returns_none_and_schedules_nothing_when_disabled():
    env = Environment()
    assert MetricsSampler.install(env) is None
    # Nothing pending: the sampler-off simulation is event-free.
    assert env.run() is None
    assert env.now == 0.0


# ------------------------------------------------------------- the sampler


def _drive(env, sampler, ticks=8, dt=0.25):
    """Run a toy workload, then the documented shutdown sequence."""
    env.run(until=env.timeout(ticks * dt))
    sampler.stop()
    env.run()
    sampler.finish()


def test_sampler_diffs_counters_gauges_spans():
    with obs.collecting() as reg, timeseries.sampling(interval=1.0) as rec:
        env = Environment()

        def workload():
            for i in range(4):
                reg.inc("work.items", 2)
                reg.gauge_set("work.depth", i)
                reg.span("work.busy", 0.125)
                yield env.timeout(1.0)

        env.process(workload())
        sampler = MetricsSampler.install(env)
        assert sampler is not None
        _drive(env, sampler, ticks=4, dt=1.0)

        doc = rec.snapshot()
        t, v = decode_series(doc["series"]["counter:work.items"])
        assert sum(v) == reg.counters["work.items"] == 8
        assert all(x > 0 for x in v)  # deltas, not cumulative levels
        _, levels = decode_series(doc["series"]["gauge:work.depth"])
        assert levels[-1] == reg.gauges["work.depth"]
        _, busy = decode_series(doc["series"]["span:work.busy"])
        assert sum(busy) == pytest.approx(reg.spans["work.busy"][1])
        # The sampler observes itself in the registry it samples.
        assert reg.counters["obs.sampler_ticks"] == doc["samples"]


def test_sampler_probe_series_telescope_to_cumulative_totals():
    stats = {"f": [0, 0.0, 0.0], "g": [0, 0.0, 0.0]}

    def probe_stats():
        return [(name, row[0], row[1], row[2])
                for name, row in sorted(stats.items())]

    with obs.collecting(), timeseries.sampling(interval=0.5) as rec:
        env = Environment()

        def workload():
            for i in range(6):
                stats["f"][0] += 1
                stats["f"][2] += 0.01
                if i % 2:
                    stats["g"][0] += 3
                    stats["g"][2] += 0.05
                yield env.timeout(0.5)

        env.process(workload())
        sampler = MetricsSampler.install(env, probe_stats=probe_stats)
        _drive(env, sampler, ticks=6, dt=0.5)

        doc = rec.snapshot()
        _, f_deltas = decode_series(doc["series"]["probe:f"])
        assert sum(f_deltas) == pytest.approx(stats["f"][2])
        assert doc["probes"]["f"] == {"count": 6, "time": 0.0,
                                      "overhead": pytest.approx(0.06)}
        times, cumulative = overhead_series(doc)
        assert cumulative[-1] == pytest.approx(stats["f"][2] + stats["g"][2])
        assert times == sorted(times)
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))


def test_finish_is_idempotent_and_captures_the_tail():
    with obs.collecting() as reg, timeseries.sampling(interval=10.0) as rec:
        env = Environment()

        def workload():
            yield env.timeout(1.0)
            reg.inc("late.events", 7)  # after the last regular tick

        env.process(workload())
        sampler = MetricsSampler.install(env)
        # interval=10 means no regular tick ever fires before the
        # workload ends at t=1; only the terminal sample sees it.
        env.run(until=env.timeout(1.0))
        sampler.stop()
        env.run()
        sampler.finish()
        sampler.finish()  # idempotent
        doc = rec.snapshot()
        _, v = decode_series(doc["series"]["counter:late.events"])
        assert sum(v) == 7  # the terminal sample caught it
        assert doc["samples"] == rec.samples


def test_sampler_ring_wrap_is_counted_never_silent():
    with obs.collecting() as reg:
        with timeseries.sampling(interval=0.1, capacity=4) as rec:
            env = Environment()

            def workload():
                for _ in range(12):
                    reg.inc("hot")
                    yield env.timeout(0.1)

            env.process(workload())
            sampler = MetricsSampler.install(env)
            _drive(env, sampler, ticks=12, dt=0.1)
            doc = rec.snapshot()
            ring = doc["series"]["counter:hot"]
            assert ring["n"] == 4
            assert ring["dropped"] > 0
            # The running total still carries the exact cumulative sum.
            assert ring["total"] == reg.counters["hot"]
