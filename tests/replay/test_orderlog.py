"""The RRLG order-log codec: round trips, truncation, b64, files."""

import hashlib

import pytest

from repro.compact.container import DecodeError
from repro.compact.varint import float_to_bits
from repro.replay.orderlog import (
    CH_DELIVER,
    CH_EVENT,
    CH_FAULT,
    CH_MATCH,
    Decision,
    OrderLog,
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
