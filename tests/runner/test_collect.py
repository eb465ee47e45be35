"""The collector protocol: one channel for every per-point attachment."""

import pickle

import pytest

from repro import obs
from repro.runner import (
    MetricsCollector,
    OrderCollector,
    ReplayCollector,
    SampleCollector,
    SweepPoint,
    TraceCollector,
)
from repro.runner.collect import COLLECTORS, from_wire, to_wire
from repro.runner.worker import execute_point

POINT = SweepPoint.policy_cell("sweep3d", "Dynamic", 4, scale=0.02)


def test_wire_form_round_trips_every_builtin_collector():
    collectors = [MetricsCollector(), TraceCollector("coarse", 128, True),
                  SampleCollector(0.25), OrderCollector(),
                  ReplayCollector({"a@1": "UlJMRw=="})]
    docs = to_wire(collectors)
    assert [d["name"] for d in docs] == ["obs", "trace", "timeseries",
                                         "order_log", "replay"]
    rebuilt = from_wire(docs)
    assert [type(c) for c in rebuilt] == [type(c) for c in collectors]
    assert [c.params for c in rebuilt] == [c.params for c in collectors]
    assert set(COLLECTORS) == {d["name"] for d in docs}


def test_unknown_collector_name_is_rejected():
    with pytest.raises(ValueError, match="unknown collector"):
        from_wire([{"name": "host-profile", "params": {}}])


def test_sampling_interval_must_be_positive():
    with pytest.raises(ValueError):
        SampleCollector(0.0)


def test_pickling_carries_configuration_not_merged_results():
    tracer = TraceCollector(detail="coarse", capacity=64)
    tracer.merge("some-label", {"tracks": []})
    clone = pickle.loads(pickle.dumps(tracer))
    assert clone.params == tracer.params
    assert clone.docs == {}


def test_entry_order_is_fixed_whatever_the_list_order():
    """The recorder's exit writes into the live registry, so the registry
    must be entered first even when listed last."""
    forward = execute_point(POINT, collectors=[MetricsCollector(),
                                               OrderCollector()])
    reverse = execute_point(POINT, collectors=[OrderCollector(),
                                               MetricsCollector()])
    assert forward["attachments"] == reverse["attachments"]
    counters = reverse["attachments"]["obs"]["counters"]
    assert counters["replay.recordings"] == 1


def test_sampler_alone_opens_a_private_registry():
    envelope = execute_point(POINT, collectors=[SampleCollector(0.5)])
    assert envelope["status"] == "ok"
    assert set(envelope["attachments"]) == {"timeseries"}
    assert envelope["attachments"]["timeseries"]["samples"] > 0
    assert obs.get() is obs.OFF
