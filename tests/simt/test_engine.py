"""Unit tests for the DES engine core: clock, queue, run modes."""

import math

import pytest

from repro.simt import Environment, SimtError, StopSimulation


def test_initial_time_defaults_to_zero():
    assert Environment().now == 0.0


def test_initial_time_can_be_set():
    assert Environment(initial_time=5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(2.5)

    env.process(proc(env))
    env.run()
    assert env.now == 2.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_nan_delays_and_until_rejected():
    """NaN compares False with everything, so a ``delay < 0`` guard let
    it through: the NaN timeout ran first with ``now == nan`` and the
    clock then went back for the next event; ``run(until=nan)`` silently
    ignored ``until``."""
    nan = float("nan")
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(nan)
    with pytest.raises(ValueError):
        env.schedule(env.event(), delay=nan)
    with pytest.raises(ValueError):
        env.run(until=nan)
    # Nothing was queued by the rejected calls: the clock stays sane.
    env.timeout(1.0)
    env.run()
    assert env.now == 1.0 and env.events_processed == 1


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        yield env.timeout(10.0)

    env.process(proc(env))
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_time_in_past_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 42

    p = env.process(proc(env))
    assert env.run(until=p) == 42


def test_run_until_failed_event_raises():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    p = env.process(proc(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=p)


def test_run_until_pending_event_is_deadlock():
    env = Environment()
    ev = env.event()  # never triggered
    with pytest.raises(SimtError, match="deadlock"):
        env.run(until=ev)


def test_run_drains_queue_when_until_none():
    env = Environment()
    times = []

    def proc(env, delay):
        yield env.timeout(delay)
        times.append(env.now)

    env.process(proc(env, 3.0))
    env.process(proc(env, 1.0))
    env.run()
    assert times == [1.0, 3.0]


def test_events_at_same_time_fire_in_schedule_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in "abc":
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimtError):
        env.step()


def test_peek_returns_next_event_time():
    env = Environment()

    def proc(env):
        yield env.timeout(7.0)

    env.process(proc(env))
    env.step()  # consume the Initialize event
    assert env.peek() == 7.0


def test_stop_simulation_exits_run_with_reason():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise StopSimulation("halted")

    env.process(proc(env))
    assert env.run() == "halted"
    assert env.now == 1.0


def test_unobserved_crash_aborts_in_strict_mode():
    env = Environment(strict=True)

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("rank aborted")

    env.process(bad(env))
    with pytest.raises(SimtError, match="crashed"):
        env.run()


def test_observed_crash_does_not_abort():
    env = Environment(strict=True)

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("rank aborted")

    def watcher(env, p):
        try:
            yield p
        except ValueError:
            return "caught"

    p = env.process(bad(env))
    w = env.process(watcher(env, p))
    assert env.run(until=w) == "caught"


def test_events_processed_counter_increases():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert env.events_processed >= 3  # init + 2 timeouts


def test_run_until_already_processed_event():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return "early"

    p = env.process(proc(env))
    env.run()
    # p is long processed; run(until=p) must return immediately.
    assert env.run(until=p) == "early"


@pytest.mark.parametrize("until", [math.inf, float("inf")])
def test_run_until_any_infinity_drains_without_corrupting_clock(until):
    """Regression: ``until`` was compared to the Infinity alias by
    identity, so a caller's own inf object corrupted the clock to inf
    once the queue drained."""
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)

    env.process(proc(env))
    env.run(until=until)
    assert env.now == 3.0

    # The clock must still be usable: a finite run(until=t) would have
    # raised "until is in the past" against a clock stuck at inf.
    env.process(proc(env))
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_already_failed_event_reraises():
    """An already-processed failed event re-raises on every run(until=...)."""
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    p = env.process(proc(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=p)
    assert p.processed and not p.ok
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=p)


def test_run_until_already_failed_bare_event_reraises():
    env = Environment()
    ev = env.event()
    ev.fail(KeyError("lost"))
    env.run()  # processes the failure; nothing is waiting on it
    assert ev.processed and not ev.ok
    with pytest.raises(KeyError, match="lost"):
        env.run(until=ev)


def test_yield_non_event_is_type_error():
    env = Environment(strict=True)

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises((TypeError, SimtError)):
        env.run()


# ------------------------------------------------------- lazy cancellation


def test_cancel_scheduled_event_never_runs_callbacks():
    env = Environment()
    fired = []
    t = env.timeout(1.0)
    t.callbacks.append(lambda ev: fired.append(ev))
    assert env.cancel(t) is True
    env.run()
    assert fired == []
    assert env.events_cancelled == 1


def test_cancelled_event_does_not_count_as_processed():
    env = Environment()
    env.timeout(1.0)
    cancelled = env.timeout(2.0)
    env.cancel(cancelled)
    env.run()
    assert env.events_processed == 1
    assert env.events_cancelled == 1


def test_cancelled_head_does_not_advance_clock():
    """A cancelled event is skipped without the clock ever visiting its
    timestamp — it must not perturb run(until=...) accounting."""
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(5.0)
        done.append(env.now)

    env.cancel(env.timeout(1.0))
    env.process(proc(env))
    env.run()
    assert done == [5.0]
    assert env.now == 5.0


def test_peek_purges_cancelled_events():
    env = Environment()
    first = env.timeout(1.0)
    env.timeout(4.0)
    env.cancel(first)
    assert env.peek() == 4.0


def test_cancel_returns_false_for_untriggered_event():
    env = Environment()
    ev = env.event()  # pending: never scheduled
    assert env.cancel(ev) is False


def test_cancel_returns_false_for_processed_event():
    env = Environment()
    t = env.timeout(1.0)
    env.run()
    assert t.processed
    assert env.cancel(t) is False


def test_cancel_twice_is_idempotent():
    env = Environment()
    t = env.timeout(1.0)
    assert env.cancel(t) is True
    assert env.cancel(t) is False
    assert env.events_cancelled == 1


def test_run_with_only_cancelled_events_returns_immediately():
    env = Environment()
    env.cancel(env.timeout(1.0))
    env.cancel(env.timeout(2.0))
    env.run()
    assert env.events_processed == 0
    assert env.now == 0.0


def test_step_skips_cancelled_events():
    env = Environment()
    env.cancel(env.timeout(1.0))
    live = env.timeout(2.0)
    env.step()
    assert live.processed
    assert env.now == 2.0
