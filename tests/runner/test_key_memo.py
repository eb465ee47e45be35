"""The per-``MachineSpec`` memo behind keys, hashes and labels.

``point_key`` encodes only a point's own fields and splices in the
machine's JSON, encoded once per spec.  These tests hold it to the
reference: the SHA-256 of the whole canonical document, encoded in one
go, for any point.  The memo, like the point's own hash memo, holds a
salted ``str`` hash, so it must never cross a process boundary.
"""

import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cluster import IA32_LINUX, MACHINES, POWER3_SP
from repro.runner import SweepPoint, point_key
from repro.runner.point import POINT_KINDS


def reference_key(point, version):
    """The key as the full canonical document encodes it."""
    doc = {"point": point.canonical(), "version": version}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# Text that could confuse a splice: quotes, escapes, colons, the
# placeholder itself, non-ASCII and lone surrogates.
awkward = st.one_of(
    st.sampled_from(['"machine":null', '"machine":', 'machine', '\\"',
                     '{"a":1}', "", "é€😀", "\ud800"]),
    st.text(max_size=12),
)
param_values = st.one_of(
    st.none(), st.booleans(), st.integers(), awkward,
    st.floats(allow_nan=False),
)
#: MachineSpec's float-typed fields, in declaration order.
_FLOAT_FIELDS = [
    "net_latency", "net_bandwidth", "shm_latency", "shm_bandwidth",
    "net_jitter", "mpi_overhead", "mpi_init_cost", "vt_active_event_cost",
    "vt_lookup_cost", "vt_funcdef_cost", "vt_msg_event_cost",
    "confsync_apply_cost", "confsync_base_cost", "confsync_stage_cost",
    "stats_per_func_cost", "trace_fs_bandwidth", "tramp_base_cost",
    "tramp_mini_cost", "snippet_op_cost", "dpcl_msg_latency", "dpcl_jitter",
    "dpcl_connect_cost", "dpcl_attach_cost", "dpcl_parse_image_cost",
    "dpcl_install_probe_cost", "dpcl_remove_probe_cost",
    "dpcl_activate_probe_cost", "dpcl_client_per_process_cost",
    "dpcl_client_per_symbol_cost", "omp_fork_base_cost",
    "omp_fork_per_thread_cost", "omp_barrier_cost", "omp_chunk_cost",
    "omp_lock_cost", "poe_job_setup_cost", "poe_spawn_cost",
    "poe_load_image_cost", "fs_open_cost", "fs_write_bandwidth",
    "fs_sync_cost", "compute_quantum", "os_noise",
]
machines = st.one_of(
    st.sampled_from(sorted(MACHINES.values(), key=lambda m: m.name)),
    st.builds(
        lambda preset, name, value: preset.with_overrides(**{name: value}),
        st.sampled_from([POWER3_SP, IA32_LINUX]),
        st.sampled_from(_FLOAT_FIELDS),
        st.floats(min_value=0, max_value=1e3),
    ),
    st.builds(lambda name: POWER3_SP.with_overrides(name=name), awkward),
)
points = st.builds(
    lambda kind, procs, app, policy, machine, seed, scale, params:
        SweepPoint(kind, procs, app=app, policy=policy, machine=machine,
                   seed=seed, scale=scale, params=tuple(params.items())),
    st.sampled_from(POINT_KINDS),
    st.integers(min_value=1, max_value=4096),
    st.one_of(st.none(), awkward),
    st.one_of(st.none(), awkward),
    machines,
    st.integers(min_value=0, max_value=2**40),
    st.floats(min_value=1e-6, max_value=1e3),
    st.dictionaries(st.one_of(awkward, st.just("machine")), param_values,
                    max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(point=points, version=awkward)
def test_point_key_equals_the_reference_encoding(point, version):
    assert point_key(point, version=version) == reference_key(point, version)


def test_mutating_canonical_documents_does_not_change_a_later_key():
    point = SweepPoint.confsync(8, machine=IA32_LINUX)
    before = point_key(point)
    doc = point.canonical()
    doc["machine"]["net_latency"] = 1.0
    doc["machine"]["name"] = "mutated"
    doc["params"]["reps"] = 99
    point.machine.canonical()["confsync_stage_cost"] = 2.0
    assert point_key(point) == before
    assert point.canonical()["machine"] == IA32_LINUX.canonical()
    assert IA32_LINUX.canonical()["net_latency"] == 55e-6


def test_overrides_and_copies_key_their_own_constants():
    point_key(SweepPoint.confsync(8))  # builds POWER3_SP's memo
    ablated = POWER3_SP.with_overrides(net_latency=1e-5)
    assert json.loads(ablated.canonical_json)["net_latency"] == 1e-5
    point = SweepPoint.confsync(8, machine=ablated)
    assert point_key(point) == reference_key(point, repro.__version__)
    assert point_key(point) != point_key(SweepPoint.confsync(8))
    for clone in (copy.copy(ablated), copy.deepcopy(ablated)):
        assert clone == ablated and hash(clone) == hash(ablated)
        assert point_key(SweepPoint.confsync(8, machine=clone)) == \
            point_key(point)


_CHILD = """
import pickle, sys
from repro.cluster import POWER3_SP
from repro.runner import SweepPoint
point = pickle.loads(sys.stdin.buffer.read())
fresh = SweepPoint.confsync(8, machine=POWER3_SP.with_overrides(net_latency=1e-5))
assert point == fresh, "unpickled point differs"
assert hash(point) == hash(fresh), "unpickled point hashes differently"
assert hash(point.machine) == hash(fresh.machine)
assert {fresh: "hit"}[point] == "hit" and {point: "hit"}[fresh] == "hit"
print(hash("power3-sp"))
"""


def test_unpickled_point_hashes_like_a_fresh_one_under_another_hash_seed():
    point = SweepPoint.confsync(
        8, machine=POWER3_SP.with_overrides(net_latency=1e-5))
    hash(point)  # builds the point's and the machine's memos before pickling
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", "")
    env["PYTHONHASHSEED"] = (
        "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], input=pickle.dumps(point),
        capture_output=True, check=True, env=env, timeout=60,
    )
    # The child really salts str hashes differently, so a memo that
    # travelled in the pickle would have been caught.
    assert int(out.stdout) != hash("power3-sp")
