"""Seeded mutation tests of the binary decoders.

VGVZ traces, RRLG order logs, time-series snapshots and socket frames
all come back from disk or the wire.  A damaged copy must fail with its
decoder's typed error (``DecodeError``, or ``WireError`` for frames) or
decode to *something*: never escape as another exception type, and
never hang.  The two sealed container formats promise more: every
mutant that differs from the original fails.
"""

import io

import pytest

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.compact.codec import CompactReader, compress_trace_bytes
from repro.compact.container import DecodeError, from_ascii, to_ascii
from repro.obs.timeseries import SeriesRing, decode_series
from repro.replay.orderlog import CH_DELIVER, CH_EVENT, CH_FAULT, OrderLog
from repro.svc.wire import WireError, read_frame, write_frame
from repro.vt import ThreadTraceBuffer, TraceFile


def _vgvz_bytes():
    trace = TraceFile("mutant", record_bytes=24)
    trace.register_function(1, "main")
    trace.register_function(2, "kernel")
    buf = ThreadTraceBuffer(0, 0)
    buf.enter(1, 0.0)
    for i in range(8):  # folds into a LOOP op
        buf.enter(2, 1.0 + i)
        buf.message("send", 1, 7, 64, 1.25 + i)
        buf.leave(2, 1.5 + i)
    buf.batch_pair(2, 10, 9.0, 1e-6, 5e-7)
    buf.collective("MPI_Allreduce", 2, 9.5, 9.75)
    buf.marker("suspended", 10.0, 10.5)
    buf.leave(1, 11.0)
    trace.add_buffer(buf)
    return compress_trace_bytes(trace)[0]


def _rrlg_bytes():
    log = OrderLog(meta={"label": "mutant"})
    for i in range(6):
        log.append(CH_EVENT, f"P:rank{i % 2}", 0, 0.5 * i)
        log.append(CH_DELIVER, "0>1:7:world", i - 1, 0.5 * i + 0.25)
    log.append(CH_FAULT, "loss.0.1", 4591870180066957722, 3.0)
    return log.to_bytes()


def _series_doc():
    ring = SeriesRing("delta", capacity=64)
    for i in range(12):
        ring.append(0.25 * i, float(i % 3))
    return ring.to_dict()


def _frame_bytes():
    fh = io.BytesIO()
    write_frame(fh, {"op": "result", "label": "mutant", "attempt": 1,
                     "envelope": {"status": "ok", "payload": [1.5, -2, None],
                                  "attachments": {"order": "UlJMRw=="}}})
    return fh.getvalue()


VGVZ = _vgvz_bytes()
RRLG = _rrlg_bytes()
SERIES = _series_doc()
FRAME = _frame_bytes()


def _decode_vgvz(data):
    CompactReader(data).read_trace()


def _decode_series_t(data):
    decode_series(dict(SERIES, t=to_ascii(data)))


def _decode_frame(data):
    assert isinstance(read_frame(io.BytesIO(data)), dict)


#: format -> (original bytes, decoder, its typed error)
DECODERS = {
    "vgvz": (VGVZ, _decode_vgvz, DecodeError),
    "rrlg": (RRLG, OrderLog.from_bytes, DecodeError),
    "series": (from_ascii(SERIES["t"]), _decode_series_t, DecodeError),
    "wire": (FRAME, _decode_frame, WireError),
}

#: (kind, position, parameter); the position wraps modulo the length.
_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 4095), st.integers(0, 7)),
    st.tuples(st.just("replace"), st.integers(0, 4095), st.integers(0, 255)),
    st.tuples(st.just("cut"), st.integers(0, 4095), st.integers(1, 16)),
    st.tuples(st.just("ff_run"), st.integers(0, 4095), st.integers(1, 24)),
    st.tuples(st.just("dup"), st.integers(0, 4095), st.integers(1, 16)),
)


def mutate(data, mutations):
    buf = bytearray(data)
    for kind, position, param in mutations:
        i = position % (len(buf) + 1)
        if kind == "flip" and i < len(buf):
            buf[i] ^= 1 << param
        elif kind == "replace" and i < len(buf):
            buf[i] = param
        elif kind == "cut":
            del buf[i:i + param]
        elif kind == "ff_run":  # an oversized varint
            buf[i:i] = b"\xff" * param
        elif kind == "dup":  # a repeated section
            buf[i:i] = buf[i:i + param]
    return bytes(buf)


#: Per-example wall budget; a decode of these inputs takes milliseconds.
_BOUNDED = settings(max_examples=500, deadline=1000)


@pytest.mark.parametrize("fmt", ("rrlg", "series", "vgvz"))
@seed(20031)
@_BOUNDED
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutants_raise_value_error_or_decode(fmt, mutations):
    data, decode, error = DECODERS[fmt]
    decode(data)  # the unmutated stream decodes
    try:
        decode(mutate(data, mutations))
    except error:
        pass


@seed(20031)
@_BOUNDED
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_frames_raise_wire_error_or_decode(mutations):
    data, decode, error = DECODERS["wire"]
    decode(data)
    try:
        decode(mutate(data, mutations))
    except error:
        pass


@pytest.mark.parametrize("fmt", ("rrlg", "vgvz"))
@seed(20031)
@settings(max_examples=1000, deadline=1000)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_sealed_mutants_always_raise_decode_error(fmt, mutations):
    data, decode, _error = DECODERS[fmt]
    mutant = mutate(data, mutations)
    if mutant == data:
        return
    with pytest.raises(DecodeError):
        decode(mutant)
