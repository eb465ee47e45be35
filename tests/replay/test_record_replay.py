"""Record -> replay: bit-identity, divergence detection, envelope flow."""

import base64

import pytest

from repro.faults import canned_plan
from repro.obs import OFF
from repro.replay import hooks
from repro.replay.errors import DivergenceError
from repro.replay.orderlog import OrderLog
from repro.runner import (
    MetricsCollector,
    OrderCollector,
    ReplayCollector,
    SweepPoint,
    SweepRunner,
)
from repro.runner.worker import execute_point


def faulted_point(seed=0):
    return SweepPoint.policy_cell(
        "sweep3d", "Dynamic", 8, scale=0.02, seed=seed,
        faults=canned_plan("daemon-crash-attach"),
    )


def replay(point, blob):
    """A collector verifying ``point`` against the log ``blob``."""
    return ReplayCollector({point.label: blob})


def record(point):
    """(base64 order log, envelope) of one recorded run."""
    envelope = execute_point(point, collectors=[OrderCollector()])
    assert envelope["status"] == "ok"
    return envelope["attachments"]["order_log"], envelope


def test_hooks_install_restore():
    assert hooks.get() is OFF
    with hooks.recording() as recorder:
        assert hooks.get() is recorder
        with hooks.replaying(OrderLog()) as controller:
            assert hooks.get() is controller
        assert hooks.get() is recorder
    assert hooks.get() is OFF


def test_recording_context_restores_on_error():
    with pytest.raises(RuntimeError):
        with hooks.recording():
            assert hooks.get().enabled
            raise RuntimeError("boom")
    assert hooks.get() is OFF


def test_recording_is_deterministic_and_rides_envelope():
    (blob1, e1), (blob2, _e2) = record(faulted_point()), record(faulted_point())
    # Bit-identical logs for the same (point, seed).
    assert blob1 == blob2
    log = OrderLog.from_b64(blob1)
    assert len(log) > 100
    counts = log.counts()
    assert counts["event"] > 0 and counts["fault"] > 0
    assert log.meta["label"] == faulted_point().label
    # Recording never perturbs the simulation.
    plain = execute_point(faulted_point())
    assert plain["payload"] == e1["payload"]
    assert "attachments" not in plain


def test_replay_of_identical_run_verifies():
    blob, _ = record(faulted_point())
    envelope = execute_point(faulted_point(),
                             collectors=[replay(faulted_point(), blob)])
    assert envelope["status"] == "ok"
    assert "divergence" not in envelope


def test_replay_of_perturbed_run_pins_first_divergence():
    blob, _ = record(faulted_point(seed=0))
    envelope = execute_point(faulted_point(seed=1),
                             collectors=[replay(faulted_point(1), blob)])
    assert envelope["status"] == "diverged"
    divergence = envelope["divergence"]
    # The report identifies the first divergent decision precisely, and
    # deterministically: seeds shift the first fault draw's timing.
    assert divergence["index"] == 4
    assert divergence["expected"]["channel_name"] == "fault"
    assert divergence["expected"]["key"] == "loss.0.0"
    # The seed shifts the injector's draw: same stream, different bits.
    assert divergence["actual"]["channel_name"] == "fault"
    assert divergence["actual"]["key"] == "loss.0.0"
    assert divergence["actual"]["value"] != divergence["expected"]["value"]
    # Deterministic: the same perturbed replay diverges identically.
    again = execute_point(faulted_point(seed=1),
                          collectors=[replay(faulted_point(1), blob)])
    assert again["divergence"] == divergence


def test_short_replay_raises_on_finish():
    log = OrderLog()
    log.append(0, "P:ghost", 0, 1.0)
    with pytest.raises(DivergenceError) as err:
        with hooks.replaying(log):
            pass  # run ends without consuming the recorded decision
    assert err.value.actual is None
    assert err.value.expected["key"] == "P:ghost"


def test_long_replay_raises_past_log_end():
    controller = hooks.ReplayController(OrderLog())
    with pytest.raises(DivergenceError) as err:
        controller.on_event(object(), 0.0, 0)
    assert err.value.index == 0
    assert err.value.expected is None


def test_divergence_error_round_trips_as_dict():
    blob, _ = record(faulted_point(seed=0))
    envelope = execute_point(faulted_point(seed=1),
                             collectors=[replay(faulted_point(1), blob)])
    err = DivergenceError.from_dict(envelope["divergence"])
    assert err.index == envelope["divergence"]["index"]
    assert "diverged at decision #" in str(err)


def test_runner_collects_order_logs_and_keeps_cache_clean(tmp_path):
    point = faulted_point()
    recorder = OrderCollector()
    runner = SweepRunner(jobs=1, cache=str(tmp_path / "cache"),
                         collectors=[recorder])
    results = runner.run([point])
    assert results[point].ok
    blob = recorder.docs[point.label]
    OrderLog.from_bytes(base64.b64decode(blob))  # parses
    # The cached entry must not carry the log: cache entries stay
    # byte-identical with recording on or off.
    from repro.runner.cache import point_key

    entry = runner.cache.get(point_key(point))
    assert "attachments" not in entry and "order_log" not in entry
    assert "order_log" not in entry["payload"]
    # A cached re-run executes nothing, so nothing is recorded.
    again = OrderCollector()
    rerun = SweepRunner(jobs=1, cache=str(tmp_path / "cache"),
                        collectors=[again])
    rerun_results = rerun.run([point])
    assert rerun_results[point].cached
    assert again.docs == {}


def test_runner_replay_flags_divergence():
    point0, point1 = faulted_point(seed=0), faulted_point(seed=1)
    recorder = OrderCollector()
    SweepRunner(jobs=1, collectors=[recorder]).run([point0])
    blob = recorder.docs[point0.label]
    # Same label -> verified clean; perturbed point -> diverged.
    ok = SweepRunner(jobs=1, collectors=[replay(point0, blob)])
    assert ok.run([point0])[point0].ok
    bad = SweepRunner(jobs=1, collectors=[replay(point1, blob)])
    result = bad.run([point1])[point1]
    assert result.status == "diverged"
    assert result.divergence["index"] == 4


def test_process_pool_records_identically():
    point = faulted_point()
    serial, pooled = OrderCollector(), OrderCollector()
    SweepRunner(jobs=1, collectors=[serial]).run([point])
    SweepRunner(jobs=2, collectors=[pooled]).run([point])
    assert serial.docs[point.label] == pooled.docs[point.label]


def test_replay_obs_counters():
    point = faulted_point()
    inner = execute_point(point, collectors=[MetricsCollector(),
                                             OrderCollector()])
    blob = inner["attachments"]["order_log"]
    n = len(OrderLog.from_b64(blob))
    counters = inner["attachments"]["obs"]["counters"]
    assert counters["replay.recordings"] == 1
    assert counters["replay.recorded_decisions"] == n
    verified = execute_point(point, collectors=[MetricsCollector(),
                                                replay(point, blob)])
    v = verified["attachments"]["obs"]["counters"]
    assert v["replay.verified_runs"] == 1
    assert v["replay.verified_decisions"] == n
    diverged = execute_point(faulted_point(seed=1),
                             collectors=[MetricsCollector(),
                                         replay(faulted_point(1), blob)])
    d = diverged["attachments"]["obs"]["counters"]
    assert d["replay.divergences"] == 1
    assert "replay.verified_runs" not in d
