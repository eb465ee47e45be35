"""Tests for the integer/timestamp framing primitives."""

import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact import (
    DecodeError,
    DeltaDecoder,
    DeltaEncoder,
    decode_uvarint,
    encode_uvarint,
    unzigzag,
    zigzag,
)
from repro.compact.varint import bits_to_float, float_to_bits


def uvarint_roundtrip(value):
    out = bytearray()
    encode_uvarint(value, out)
    decoded, pos = decode_uvarint(bytes(out), 0)
    assert pos == len(out)
    return decoded


def test_uvarint_small_values_cost_one_byte():
    for value in (0, 1, 42, 127):
        out = bytearray()
        encode_uvarint(value, out)
        assert len(out) == 1
        assert uvarint_roundtrip(value) == value


def test_uvarint_boundaries():
    for value in (127, 128, 16383, 16384, 2**32, 2**63, 2**64, 2**200):
        assert uvarint_roundtrip(value) == value


def test_uvarint_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        encode_uvarint(-1, bytearray())


def test_uvarint_truncated_raises():
    out = bytearray()
    encode_uvarint(300, out)
    with pytest.raises(DecodeError, match="truncated"):
        decode_uvarint(bytes(out[:-1]), 0)


def test_uvarint_sequence_decoding_advances_position():
    out = bytearray()
    for value in (5, 300, 0):
        encode_uvarint(value, out)
    data = bytes(out)
    pos = 0
    decoded = []
    for _ in range(3):
        value, pos = decode_uvarint(data, pos)
        decoded.append(value)
    assert decoded == [5, 300, 0]
    assert pos == len(data)


def test_zigzag_interleaves_signs():
    assert [zigzag(n) for n in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]


@given(st.integers())
@settings(max_examples=200, deadline=None)
def test_zigzag_roundtrip_arbitrary_precision(n):
    z = zigzag(n)
    assert z >= 0
    assert unzigzag(z) == n


def test_float_bits_roundtrip_specials():
    for value in (0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf"),
                  5e-324, -5e-324, 1.7976931348623157e308):
        bits = float_to_bits(value)
        back = bits_to_float(bits)
        assert math.copysign(1.0, back) == math.copysign(1.0, value)
        assert back == value or (back != back and value != value)


def test_float_bits_preserves_nan_payload():
    nan = bits_to_float(0x7FF8_0000_0000_0001)
    assert nan != nan
    assert float_to_bits(bits_to_float(float_to_bits(nan))) == float_to_bits(nan)


def delta_roundtrip(values):
    out = bytearray()
    encoder = DeltaEncoder()
    encoder.encode_many(values, out)
    data = bytes(out)
    decoder = DeltaDecoder()
    decoded = []
    pos = 0
    for _ in values:
        value, pos = decoder.decode(data, pos)
        decoded.append(value)
    assert pos == len(data)
    return decoded, data


def test_delta_roundtrip_is_bit_exact():
    values = [0.0, -0.0, 1.5, 1.5, -3.25, float("inf"), 2.0, 5e-324]
    decoded, _ = delta_roundtrip(values)
    assert [float_to_bits(v) for v in decoded] == [float_to_bits(v) for v in values]


def test_periodic_stream_costs_one_byte_after_warmup():
    # Constant step within one binade: the bit-pattern delta is
    # constant, so the second-order encoder emits a single zero byte
    # per timestamp from the third sample on.
    values = [1024.0 + 0.5 * k for k in range(100)]
    out = bytearray()
    encoder = DeltaEncoder()
    encoder.encode(values[0], out)
    encoder.encode(values[1], out)
    warmup = len(out)
    encoder.encode_many(values[2:], out)
    assert len(out) - warmup == 98  # one byte each
    decoded, _ = delta_roundtrip(values)
    assert decoded == values


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=80))
@settings(max_examples=100, deadline=None)
def test_delta_roundtrip_property(values):
    decoded, _ = delta_roundtrip(values)
    assert [float_to_bits(v) for v in decoded] == [float_to_bits(v) for v in values]


def test_delta_decoder_rejects_out_of_int64_bit_pattern():
    # A corrupt stream can step the bit pattern out of int64; that must
    # surface as the decoders' DecodeError, not struct.error.
    out = bytearray()
    encode_uvarint(zigzag(2**64), out)
    with pytest.raises(DecodeError, match="corrupt timestamp"):
        DeltaDecoder().decode(bytes(out), 0)
