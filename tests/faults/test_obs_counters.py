"""Fault counters flow through obs snapshots and merge across envelopes."""

import pytest

from repro.faults import canned_plan
from repro.obs import MetricsRegistry
from repro.runner import MetricsCollector, SweepPoint, SweepRunner
from repro.runner.worker import execute_point


def faulted_point(seed=0):
    return SweepPoint.policy_cell(
        "sweep3d", "Dynamic", 16, scale=0.02, seed=seed,
        faults=canned_plan("daemon-crash-attach"),
    )


def test_envelope_obs_carries_fault_counters():
    envelope = execute_point(faulted_point(), collectors=[MetricsCollector()])
    assert envelope["status"] == "ok"
    counters = envelope["attachments"]["obs"]["counters"]
    assert counters["faults.injected"] > 0
    assert counters["faults.daemon_crash"] > 0
    # Ranks 8..15 live on the crashed node: all eight are quarantined.
    assert counters["dynprof.quarantined_ranks"] == 8
    # The injected summary in the payload agrees with the obs counter.
    report = envelope["payload"]["faults"]
    assert sum(report["injected"].values()) == counters["faults.injected"]


def test_fault_counters_merge_across_envelopes():
    envelopes = [
        execute_point(faulted_point(seed=s), collectors=[MetricsCollector()])
        for s in (0, 1)
    ]
    snapshots = [env["attachments"]["obs"] for env in envelopes]
    merged = MetricsRegistry()
    for snap in snapshots:
        merged.merge_snapshot(snap)
    counters = merged.snapshot()["counters"]
    per_env = [snap["counters"] for snap in snapshots]
    for key in ("faults.injected", "dynprof.quarantined_ranks"):
        assert counters[key] == sum(c[key] for c in per_env)
    assert counters["dynprof.quarantined_ranks"] == 16


def test_runner_merges_fault_counters(tmp_path):
    metrics = MetricsCollector()
    runner = SweepRunner(jobs=1, cache=tmp_path / "cache", collectors=[metrics])
    results = runner.run([faulted_point()])
    (result,) = results.values()
    assert result.status == "ok"
    counters = metrics.registry.snapshot()["counters"]
    assert counters["faults.injected"] > 0
    assert counters["dynprof.quarantined_ranks"] == 8
    # Cached re-run simulates nothing, so nothing new merges in.
    again = MetricsCollector()
    rerun = SweepRunner(jobs=1, cache=tmp_path / "cache", collectors=[again])
    (hit,) = rerun.run([faulted_point()]).values()
    assert hit.cached
    assert again.registry.snapshot()["counters"] == {}
