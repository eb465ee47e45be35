"""The plain-class records behave as the dataclasses they replaced.

The records on the CLI's import path and on cached regenerations are
plain classes (``repro._record``), so those paths never load
``dataclasses``.  Each keeps its constructor, validation, field-wise
equality and hash, frozenness and ``repr``: the expected reprs and the
``PolicyResult`` payload key order below were taken from the dataclass
versions.
"""

import hashlib
import pickle

import pytest

from repro.apps import SWEEP3D
from repro.apps.inputdeck import InputDeck
from repro.cluster import IA32_LINUX, POWER3_SP, MachineSpec
from repro.dynprof.commands import Command
from repro.dynprof.policyspec import PolicyResult
from repro.experiments.results import FigureResult, Series
from repro.experiments.tracevol import TraceVolumeRow
from repro.faults import FaultPlan, FaultSpec
from repro.runner import PointResult, RetryPolicy, SweepPoint, execute_point

FROZEN = {
    "MachineSpec": (lambda: POWER3_SP.with_overrides(), "net_latency"),
    "SweepPoint": (lambda: SweepPoint.confsync(8), "procs"),
    "RetryPolicy": (RetryPolicy, "max_attempts"),
    "FaultSpec": (lambda: FaultSpec("message_loss", probability=0.5),
                  "probability"),
    "FaultPlan": (lambda: FaultPlan.of(FaultSpec("message_loss")), "note"),
    "AppSpec": (lambda: SWEEP3D, "name"),
    "Command": (lambda: Command("insert", ("sweep",)), "verb"),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_assigning_a_field_of_a_frozen_record_raises(name):
    make, field = FROZEN[name]
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before
    assert make() == record and hash(make()) == hash(record)


def test_records_compare_by_class_and_fields():
    assert RetryPolicy(3) == RetryPolicy(3) != RetryPolicy(2)
    assert RetryPolicy() != (2, 0.0, 2.0, 0.0)
    assert Series("a", [1.0]) == Series("a", [1.0]) != Series("b", [1.0])
    assert FaultPlan.of(note="x") != FaultPlan.of(note="y")  # note counts
    assert hash(FaultPlan.of(note="x")) == hash(FaultPlan.of(note="x"))
    for mutable in (Series("a", []), InputDeck(), PointResult(
            SweepPoint.confsync(2), "ok")):
        with pytest.raises(TypeError, match="unhashable"):
            hash(mutable)


def test_validation_is_kept():
    # RetryPolicy's and FaultSpec's checks have their own tests.
    with pytest.raises(ValueError, match="procs must be >= 1"):
        SweepPoint.confsync(0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        POWER3_SP.with_overrides(bogus=1.0)
    with pytest.raises(TypeError):
        MachineSpec(name="x", n_nodes=1, cores_per_node=1)


def test_reprs_are_the_dataclass_reprs():
    assert repr(RetryPolicy()) == (
        "RetryPolicy(max_attempts=2, backoff=0.0, multiplier=2.0, jitter=0.0)")
    assert repr(FaultSpec("message_loss", probability=0.01)) == (
        "FaultSpec(kind='message_loss', node=None, rank=None, start=0.0, "
        "end=None, probability=0.01, factor=1.0, delay=0.0)")
    assert repr(FaultPlan.of(FaultSpec("message_loss"), note="n")) == \
        "<FaultPlan message_loss>"
    assert repr(Command("wait", (), seconds=2.0)) == \
        "Command(verb='wait', args=(), seconds=2.0)"
    assert repr(Series("a", [1.0, None])) == \
        "Series(label='a', values=[1.0, None])"
    assert repr(InputDeck({"itm": 6})) == "InputDeck(params={'itm': 6})"
    assert repr(TraceVolumeRow("sweep3d", "Full", 2, 1.5, 10, 0.5, 0.25)) == (
        "TraceVolumeRow(app='sweep3d', policy='Full', n_cpus=2, time=1.5, "
        "records=10, mbytes=0.5, rate_mb_s_per_proc=0.25)")
    assert repr(FigureResult("f", "t", "x", "y", [1])) == \
        "<FigureResult f: 0 series over [1]>"
    assert repr(SWEEP3D).startswith(
        "AppSpec(name='sweep3d', title='Sweep3d', lang='MPI/F77', kind='mpi',")
    assert repr(PointResult(SweepPoint.selftest("echo"), "ok")).startswith(
        "PointResult(point=SweepPoint(kind='selftest', procs=1, app=None,")
    # The 49-field spec and a point holding one, as sha256 digests.
    assert hashlib.sha256(repr(POWER3_SP).encode()).hexdigest() == \
        "b26f5f08f2ffbccc44b0415ac1fdc6895a9230c53941564b91b73211f768b812"
    point = SweepPoint.confsync(8, machine=IA32_LINUX)
    assert hashlib.sha256(repr(point).encode()).hexdigest() == \
        "7d91c89c140d0aa1422cfdf8052604f97a57c272862b57f2b6fa9c2122a786cf"


#: The cached payload of a ``policy`` point: PolicyResult's fields, in
#: declaration order (what ``dataclasses.asdict`` gave).
POLICY_PAYLOAD_KEYS = [
    "app", "policy", "n_cpus", "scale", "time", "per_rank_times",
    "trace_records", "trace_bytes", "instrument_time", "faults",
]


def test_policy_result_payload_key_order_is_pinned():
    result = PolicyResult("sweep3d", "Full", 2, 0.1, 1.5, [1.0, 1.5], 10, 240)
    payload = result.to_dict()
    assert list(payload) == POLICY_PAYLOAD_KEYS
    assert PolicyResult(**payload) == result
    assert PolicyResult("a", "None", 1, 1.0, 0.0).per_rank_times == []
    point = SweepPoint.policy_cell("sweep3d", "Full", 1, scale=0.01)
    envelope = execute_point(point)
    assert list(envelope["payload"]) == POLICY_PAYLOAD_KEYS


def test_point_hash_memo_does_not_travel_in_a_pickle():
    point = SweepPoint.confsync(8)
    hash(point)
    clone = pickle.loads(pickle.dumps(point))
    assert "_hash" not in clone.__dict__
    assert clone == point and hash(clone) == hash(point)
