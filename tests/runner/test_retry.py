"""RetryPolicy semantics and the cache-write degradation path."""

import io
import json

import pytest

from repro.runner import RetryPolicy, SweepPoint, SweepRunner


# ----------------------------------------------------------- policy object


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.0)


def test_should_retry_counts_attempts():
    policy = RetryPolicy(max_attempts=3)
    assert policy.should_retry(1)
    assert policy.should_retry(2)
    assert not policy.should_retry(3)


def test_delay_grows_by_multiplier():
    policy = RetryPolicy(max_attempts=4, backoff=0.1, multiplier=2.0)
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.2)
    assert policy.delay(3) == pytest.approx(0.4)


def test_delay_jitter_is_keyed_and_reproducible():
    policy = RetryPolicy(max_attempts=2, backoff=0.1, jitter=0.05)
    a = policy.delay(1, key="pointA")
    b = policy.delay(1, key="pointB")
    assert a != b                       # distinct points decorrelate
    assert policy.delay(1, key="pointA") == a   # but each is deterministic
    assert 0.1 <= a <= 0.15
    assert policy.delay(1) == policy.delay(1)


def test_zero_backoff_fast_path():
    assert RetryPolicy(max_attempts=5).delay(4) == 0.0


def test_runner_retry_policy_is_the_only_budget():
    # The default grants one retry; a policy passes through untouched.
    assert SweepRunner(jobs=1).retry == RetryPolicy(max_attempts=2)
    custom = RetryPolicy(max_attempts=2, backoff=0.01)
    assert SweepRunner(jobs=1, retry=custom).retry is custom
    with pytest.raises(TypeError):
        SweepRunner(jobs=1, retries=3)


# ----------------------------------------------------------- crash retries


def test_crash_recovers_under_budgeted_policy(tmp_path):
    marker = tmp_path / "crashed-once"
    point = SweepPoint.selftest("crash_once", marker=str(marker))
    out = io.StringIO()
    runner = SweepRunner(
        jobs=2, telemetry=out,
        retry=RetryPolicy(max_attempts=3, backoff=0.01),
    )
    result = runner.run([point])[point]
    assert result.ok
    assert result.attempts == 2
    events = [json.loads(line) for line in out.getvalue().splitlines()]
    retry_events = [e for e in events if e["event"] == "retry"]
    assert len(retry_events) == 1
    assert retry_events[0]["attempt"] == 2
    assert retry_events[0]["delay"] == pytest.approx(0.01)
    assert runner.telemetry.retries == 1


def test_single_attempt_policy_never_retries():
    point = SweepPoint.selftest("crash")
    runner = SweepRunner(jobs=2, retry=RetryPolicy(max_attempts=1))
    result = runner.run([point])[point]
    assert result.status == "crashed"
    assert result.attempts == 1


# ------------------------------------------------- cache-write degradation


def test_cache_write_failure_degrades_to_uncached(tmp_path):
    """An unwritable cache must cost a warning, not the sweep."""
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("a regular file where the cache root should be")
    out = io.StringIO()
    runner = SweepRunner(jobs=1, cache=blocker / "cache", telemetry=out)
    point = SweepPoint.selftest("echo", value=7)
    result = runner.run([point])[point]
    # The result still came back fine; only caching was lost.
    assert result.ok
    assert result.payload["echo"] == 7
    assert not result.cached
    events = [json.loads(line) for line in out.getvalue().splitlines()]
    warnings = [e for e in events if e["event"] == "warning"]
    assert len(warnings) == 1
    assert "cache write failed" in warnings[0]["message"]
    assert warnings[0]["label"] == point.label
    assert runner.telemetry.warnings == 1
    # Nothing was cached: a fresh runner recomputes rather than hits.
    rerun = SweepRunner(jobs=1, cache=blocker / "cache")
    assert not rerun.run([point])[point].cached
