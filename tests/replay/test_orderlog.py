"""The RRLG order-log codec: round trips, truncation, b64, files, and
the bulk encoder against the scalar reference."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact.container import DecodeError
from repro.compact.varint import float_to_bits
from repro.replay import orderlog
from repro.replay.orderlog import (
    BULK_MIN_DECISIONS,
    CH_DELIVER,
    CH_EVENT,
    CH_FAULT,
    CH_MATCH,
    Decision,
    OrderLog,
    _bulk_body,
    _encode,
    _scalar_body,
)


def sample_log():
    log = OrderLog(meta={"format": "repro.replay", "label": "t"})
    log.append(CH_EVENT, "P:rank0", 0, 0.0)
    log.append(CH_EVENT, "Timeout", 1, 0.5)
    log.append(CH_DELIVER, "0>1:7:world", -1, 0.5)
    log.append(CH_MATCH, "0>1:7:world", 3, 0.75)
    log.append(CH_FAULT, "loss.0.1", float_to_bits(0.123456), 1.25)
    log.append(CH_EVENT, "P:rank0", 0, 1.25)  # repeated key: interned
    return log


def test_roundtrip_is_exact():
    log = sample_log()
    data = log.to_bytes()
    back = OrderLog.from_bytes(data)
    assert back == log
    assert back.decisions == log.decisions
    assert back.meta == log.meta
    # Serialisation is deterministic: same log, same bytes.
    assert back.to_bytes() == data


def test_counts_by_channel():
    assert sample_log().counts() == {
        "event": 3, "deliver": 1, "match": 1, "fault": 1,
    }


def test_b64_round_trip():
    log = sample_log()
    assert OrderLog.from_b64(log.to_b64()) == log


def test_b64_rejects_non_base64_characters():
    text = sample_log().to_b64()
    with pytest.raises(DecodeError, match="base64"):
        OrderLog.from_b64(text[:8] + "!" + text[8:])


GOLDEN_SHA256 = "29acca0ed8eea93b4d808b071f0e81347cbebabf77d8e86f0472195758dd58f5"


def test_golden_order_log_digest():
    """The RRLG v2 bytes of a fixed log are pinned; a format change
    must bump the version and consciously re-pin this digest."""
    data = sample_log().to_bytes()
    assert data[:5] == b"RRLG\x02"
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256


def test_save_load_round_trip(tmp_path):
    log = sample_log()
    path = str(tmp_path / "run.order")
    log.save(path)
    assert OrderLog.load(path) == log


def test_bad_magic_rejected():
    with pytest.raises(DecodeError, match="bad magic"):
        OrderLog.from_bytes(b"NOPE" + b"\x00" * 16)


def test_unsupported_version_rejected():
    data = bytearray(sample_log().to_bytes())
    data[4] = 99  # the version byte sits right after the magic
    with pytest.raises(DecodeError, match="version"):
        OrderLog.from_bytes(bytes(data))


#: An RRLG version-1 log: meta, key table up front, one decision, the
#: counted "GLRR" trailer, no seal.
V1_LOG = (b'RRLG\x01\x0d{"label":"t"}' + b"\x01\x07P:rank0"
          + b"\x01\x00\x00\x00\x00" + b"\x01GLRR")


def test_version_1_log_rejected():
    with pytest.raises(DecodeError, match="unsupported RRLG order log version 1"):
        OrderLog.from_bytes(V1_LOG)


@pytest.mark.parametrize("cut", (6, 20, -5, -1))
def test_truncation_detected(cut):
    data = sample_log().to_bytes()
    with pytest.raises(DecodeError, match="truncated or corrupt"):
        OrderLog.from_bytes(data[:cut])


def test_meta_must_be_a_json_object():
    with pytest.raises(DecodeError, match="not a JSON object"):
        OrderLog.from_bytes(OrderLog(meta=[1]).to_bytes())


def test_empty_log_round_trips():
    log = OrderLog(meta={})
    assert OrderLog.from_bytes(log.to_bytes()) == log
    assert len(log) == 0


def test_decision_to_dict_names_channel():
    d = Decision(CH_FAULT, "loss.0.1", 42, 1.5)
    doc = d.to_dict()
    assert doc["channel_name"] == "fault"
    assert doc["key"] == "loss.0.1"
    assert doc["value"] == 42


# -- the bulk encoder against the scalar reference --------------------------------

INT64 = (-(1 << 63), (1 << 63) - 1)

_META = {"label": "prop"}
#: The meta object's canonical JSON is interned before any key, so a key
#: equal to it is a reference from its first use.
_META_TEXT = '{"label":"prop"}'

_times = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                     5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                     -1e308, 1.7976931348623157e308]),
    # Near-monotonic runs, as a recorded engine makes.
    st.floats(min_value=0.0, max_value=1e3),
)
_keys = st.one_of(
    st.sampled_from(["P:rank0", "P:rank1", "0>1:7:world", "Timeout",
                     "loss.0.1", "ключ", "键→", "", _META_TEXT]),
    st.text(max_size=12),
)
_values = st.one_of(
    st.integers(min_value=-4, max_value=300),
    st.sampled_from([INT64[0], INT64[1], INT64[0] + 1, INT64[1] - 1, -1, 0]),
    st.integers(*INT64),
)
_decisions = st.lists(
    st.tuples(st.integers(0, 3), _keys, _values, _times), max_size=60)


def _bits(time):
    return float_to_bits(time)


def _leaves_int64(log):
    """Whether a value or a time delta of ``log`` is outside int64."""
    def out(n):
        return not INT64[0] <= n <= INT64[1]

    prev_bits = prev_delta = 0
    for value, time in zip(log.values, log.times):
        delta = _bits(time) - prev_bits
        if out(value) or out(delta) or out(delta - prev_delta):
            return True
        prev_bits, prev_delta = _bits(time), delta
    return False


def _assert_bulk_matches(log, reference):
    """The bulk encoder writes ``reference`` for ``log``, or refuses
    it with OverflowError exactly when the log leaves int64."""
    try:
        bulk = _encode(log, _bulk_body)
    except OverflowError:
        # Only a log that really leaves int64 takes the scalar path.
        assert _leaves_int64(log)
    else:
        assert bulk == reference
        assert not _leaves_int64(log)


@settings(max_examples=300, deadline=None)
@given(_decisions)
def test_bulk_encoder_writes_the_scalar_reference_bytes(decisions):
    log = OrderLog(meta=dict(_META))
    for decision in decisions:
        log.append(*decision)
    reference = _encode(log, _scalar_body)
    assert log.to_bytes() == reference
    _assert_bulk_matches(log, reference)
    back = OrderLog.from_bytes(reference)
    assert back.channels == log.channels and back.keys == log.keys
    assert back.values == log.values
    assert list(map(_bits, back.times)) == list(map(_bits, log.times))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), _keys,
                          st.integers(min_value=-(1 << 70), max_value=1 << 70),
                          _times), min_size=1, max_size=20))
def test_values_beyond_int64_fall_back_to_the_scalar_encoder(decisions):
    log = OrderLog(meta=dict(_META))
    for decision in decisions:
        log.append(*decision)
    reference = _encode(log, _scalar_body)
    assert log.to_bytes() == reference
    _assert_bulk_matches(log, reference)


@pytest.mark.parametrize("times", [
    [0.0, 1e308, 0.0],                 # delta-of-delta wraps
    [-1e308, 1e308],                   # bit-pattern delta wraps
    [1.0, float("nan"), -0.0, float("-inf"), 5e-324],
    [3.0, 2.0, 1.0, 0.5],              # fault draws stamped out of order
])
def test_awkward_time_runs_encode_like_the_reference(times):
    log = OrderLog(meta={})
    for i, time in enumerate(times):
        log.append(CH_FAULT, f"s{i % 2}", i, time)
    reference = _encode(log, _scalar_body)
    assert log.to_bytes() == reference
    _assert_bulk_matches(log, reference)


def test_empty_log_bulk_and_scalar_agree():
    log = OrderLog(meta={"label": "empty"})
    assert log.to_bytes() == _encode(log, _scalar_body) \
        == _encode(log, _bulk_body)


# -- which encoder to_bytes picks ---------------------------------------------------


def _engine_log(n):
    """``n`` decisions shaped like a recorded run: a few dozen interned
    keys, small values, mostly rising times with out-of-order fault
    draws."""
    log = OrderLog(meta={"label": "crossover"})
    for i in range(n):
        channel = i % 4
        time = i * 1e-3 if channel != CH_FAULT else (n - i) * 1e-4
        log.append(channel, f"k{(i * 7) % 37}", (i % 9) - 1, time)
    return log


def _spy_on_bulk_encoder(monkeypatch):
    """The lengths of the logs ``to_bytes`` hands the bulk encoder."""
    calls = []

    def spy(*args):
        calls.append(len(args[0]))
        return _bulk_body(*args)

    monkeypatch.setattr(orderlog, "_bulk_body", spy)
    return calls


@pytest.mark.parametrize("n, bulk", [
    (BULK_MIN_DECISIONS - 1, False),  # just below the crossover
    (BULK_MIN_DECISIONS, True),       # at it
    (BULK_MIN_DECISIONS + 1, True),   # just above it
])
def test_short_logs_take_the_scalar_encoder_with_the_same_bytes(
        monkeypatch, n, bulk):
    log = _engine_log(n)
    reference = _encode(log, _scalar_body)
    assert _encode(log, _bulk_body) == reference
    calls = _spy_on_bulk_encoder(monkeypatch)
    assert log.to_bytes() == reference
    assert calls == ([n] if bulk else [])
    assert OrderLog.from_bytes(reference) == log


@pytest.mark.parametrize("value", [INT64[1] + 1, INT64[0] - 1, 1 << 70])
def test_long_log_beyond_int64_falls_back_to_the_scalar_encoder(
        monkeypatch, value):
    log = _engine_log(BULK_MIN_DECISIONS)
    log.values[BULK_MIN_DECISIONS // 2] = value
    reference = _encode(log, _scalar_body)
    with pytest.raises(OverflowError):
        _encode(log, _bulk_body)
    calls = _spy_on_bulk_encoder(monkeypatch)
    assert log.to_bytes() == reference
    assert calls == [BULK_MIN_DECISIONS]
    assert OrderLog.from_bytes(reference).values == log.values
