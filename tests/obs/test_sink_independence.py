"""Every observation sink is independent of the others.

One simulated point runs under every subset of the four collectors.
Observation never reaches the simulation, so the payload (and with it
a figure's stdout) is the same in all sixteen runs.  Each sink's
attachment is the one it produces alone, whatever else shares the
tap: the tap's fan-out must not let one sink's events leak into, or
go missing from, another's document.

Two documented couplings remain.  The recorder adds its
``replay.recordings`` and ``replay.recorded_decisions`` counters to the
metrics document when it detaches.  And the sampler is a simt process:
its wakeups are engine events, so with sampling on every other sink
sees them (``simt.events``, ``obs.sampler_ticks``, recorded decisions).
So a sink's attachment is compared with the one it produces alone, or
alone with the sampler when sampling is on.
"""

from itertools import combinations

import pytest

from repro.runner import (
    MetricsCollector,
    OrderCollector,
    SampleCollector,
    SweepPoint,
    TraceCollector,
)
from repro.runner.worker import execute_point

#: A Dynamic point patches probes mid-run, so every hook layer fires:
#: engine, MPI, VT, trampolines, dynprof and DPCL.
POINT = SweepPoint.policy_cell("sppm", "Dynamic", 4, scale=0.1)

COLLECTORS = {
    "obs": MetricsCollector,
    "trace": TraceCollector,
    "timeseries": lambda: SampleCollector(0.5),
    "order_log": OrderCollector,
}

#: What the recorder adds to the metrics document.
RECORDER_COUNTERS = ("replay.recordings", "replay.recorded_decisions")

SUBSETS = [frozenset(c) for n in range(len(COLLECTORS) + 1)
           for c in combinations(COLLECTORS, n)]


@pytest.fixture(scope="module")
def runs():
    """subset -> the point's envelope with exactly those collectors."""
    out = {}
    for subset in SUBSETS:
        envelope = execute_point(
            POINT, collectors=[COLLECTORS[name]() for name in subset])
        assert envelope["status"] == "ok", envelope
        out[subset] = envelope
    return out


def _without_recorder(doc):
    counters = {k: v for k, v in doc["counters"].items()
                if k not in RECORDER_COUNTERS}
    return {**doc, "counters": counters}


def test_payload_is_the_same_under_every_subset_of_sinks(runs):
    plain = runs[frozenset()]
    assert "attachments" not in plain
    for subset, envelope in runs.items():
        assert envelope["payload"] == plain["payload"], sorted(subset)


@pytest.mark.parametrize("sink", sorted(COLLECTORS))
def test_each_sink_attaches_what_it_attaches_alone(runs, sink):
    for subset, envelope in runs.items():
        if sink not in subset:
            continue
        attachments = envelope["attachments"]
        assert set(attachments) == subset
        alone = {sink} | ({"timeseries"} & subset)
        expected = runs[frozenset(alone)]["attachments"][sink]
        got = attachments[sink]
        if sink == "obs" and "order_log" in subset:
            got = _without_recorder(got)
            assert got != attachments[sink]
        assert got == expected, (sink, sorted(subset))
