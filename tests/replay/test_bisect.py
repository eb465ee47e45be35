"""ddmin fault-plan bisection: minimality, determinism, the oracles."""

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.replay.bisect import bisect_plan, ddmin, point_with_faults
from repro.runner import OrderCollector, SweepPoint
from repro.runner.worker import execute_point


def three_spec_plan():
    """One real culprit plus two inert specs — the CI smoke fixture."""
    return FaultPlan.of(
        FaultSpec("daemon_crash", node=1),
        FaultSpec("message_loss", probability=0.0),
        FaultSpec("rank_slowdown", rank=0, factor=2.0,
                  start=1_000_000.0, end=1_000_001.0),
    )


def bench_point(**kw):
    return SweepPoint.instrument("sweep3d", 16, scale=0.05, **kw)


# -- the ddmin core, against a pure predicate ---------------------------------


def test_ddmin_single_culprit():
    items = list(range(8))
    minimal = ddmin(items, lambda s: 5 in s)
    assert minimal == [5]


def test_ddmin_interacting_pair():
    items = list(range(8))
    minimal = ddmin(items, lambda s: 2 in s and 6 in s)
    assert sorted(minimal) == [2, 6]


def test_ddmin_is_one_minimal():
    items = list(range(10))
    culprits = {1, 4, 9}
    minimal = ddmin(items, lambda s: culprits <= set(s))
    assert sorted(minimal) == sorted(culprits)
    # 1-minimal: dropping any single remaining item loses the property.
    for drop in minimal:
        assert not culprits <= set(x for x in minimal if x != drop)


def test_ddmin_deterministic():
    items = list(range(12))
    runs = [ddmin(items, lambda s: 7 in s) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2] == [7]


# -- point_with_faults --------------------------------------------------------


def test_point_with_faults_swaps_the_plan():
    point = bench_point(faults=three_spec_plan())
    clean = point_with_faults(point, None)
    assert clean.param("faults") is None
    assert clean.label != point.label or "faults" not in dict(point.params)
    rearmed = point_with_faults(clean, three_spec_plan())
    assert rearmed.param("faults") == point.param("faults")
    # Empty plans canonicalize away entirely (cache-key stability).
    assert point_with_faults(point, FaultPlan.empty()).param("faults") is None


# -- bisect_plan on the real simulation ---------------------------------------


def test_bisect_effect_mode_pins_the_culprit():
    result = bisect_plan(bench_point(), three_spec_plan(), mode="effect")
    assert len(result.minimal) == 1
    spec = result.minimal.specs[0]
    assert spec.kind == "daemon_crash" and spec.node == 1
    assert result.original_size == 3
    # Deterministic test trajectory: full plan, empty plan, first subset.
    assert result.tests == 4
    assert result.history == [
        {"specs": [0, 1, 2], "interesting": True},
        {"specs": [], "interesting": False},
        {"specs": [0], "interesting": True},
    ]
    doc = result.to_dict()
    assert doc["minimal_size"] == 1
    assert doc["original_size"] == 3
    assert doc["tests"] == 4


def test_bisect_is_deterministic():
    a = bisect_plan(bench_point(), three_spec_plan(), mode="effect")
    b = bisect_plan(bench_point(), three_spec_plan(), mode="effect")
    assert a.minimal == b.minimal
    assert a.history == b.history


def test_bisect_diverge_mode():
    point = SweepPoint.policy_cell("sweep3d", "Dynamic", 8, scale=0.02)
    clean = execute_point(point, collectors=[OrderCollector()])
    assert clean["status"] == "ok"
    from repro.replay.orderlog import OrderLog

    against = OrderLog.from_b64(clean["attachments"]["order_log"])
    result = bisect_plan(point, three_spec_plan(), mode="diverge",
                         against=against)
    spec = result.minimal.specs[0]
    assert spec.kind == "daemon_crash"
    assert len(result.minimal) == 1


def test_bisect_rejects_uninteresting_plan():
    # A selftest point ignores fault plans entirely, so no plan can
    # perturb its payload: the full plan fails the effect oracle and
    # there is nothing to minimize.  (On real simulation points even a
    # never-firing plan is interesting — carrying a plan switches the
    # client into its degraded-mode protocol.)
    inert = FaultPlan.of(
        FaultSpec("message_loss", probability=0.9, start=0.0, end=0.0),
        FaultSpec("daemon_crash", node=1, start=5.0, end=5.0),
    )
    point = SweepPoint.selftest(mode="echo", value=7)
    with pytest.raises(ValueError, match="not interesting"):
        bisect_plan(point, inert, mode="effect")


def test_bisect_fail_mode_rejects_passing_plan():
    # The canned plan perturbs payloads but the run still succeeds, so
    # under the fail oracle there is nothing to minimize.
    with pytest.raises(ValueError, match="not interesting"):
        bisect_plan(bench_point(), three_spec_plan(), mode="fail")


def test_bisect_rejects_unknown_mode_and_missing_log():
    with pytest.raises(ValueError, match="unknown bisect mode"):
        bisect_plan(bench_point(), three_spec_plan(), mode="nope")
    with pytest.raises(ValueError, match="needs a recorded clean"):
        bisect_plan(bench_point(), three_spec_plan(), mode="diverge")
