"""The RRLG order-log codec: round trips, truncation, b64, files."""

import pytest

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


def test_save_load_round_trip(tmp_path):
    log = sample_log()
    path = str(tmp_path / "run.order")
    log.save(path)
    assert OrderLog.load(path) == log


def test_bad_magic_rejected():
    with pytest.raises(ValueError, match="bad magic"):
        OrderLog.from_bytes(b"NOPE" + b"\x00" * 16)


def test_unsupported_version_rejected():
    data = bytearray(sample_log().to_bytes())
    data[4] = 99  # the version uvarint sits right after the magic
    with pytest.raises(ValueError, match="version"):
        OrderLog.from_bytes(bytes(data))


@pytest.mark.parametrize("cut", (6, 20, -5, -1))
def test_truncation_detected(cut):
    data = sample_log().to_bytes()
    with pytest.raises(ValueError, match="truncated or corrupt"):
        OrderLog.from_bytes(data[:cut])


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
