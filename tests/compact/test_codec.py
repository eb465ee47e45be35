"""Round-trip, framing and statistics tests for the VGVZ codec."""

import hashlib
import io

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact.codec import (
    MAGIC,
    VERSION,
    CompactReader,
    CompactWriter,
    compress_trace_bytes,
    decompress_trace,
    expand_batch_pairs,
    measure_compact_bytes,
    record_key,
)
from repro.compact.container import DecodeError, Writer
from repro.compact.varint import float_to_bits
from repro.vt import (
    BatchPairRecord,
    CollectiveRecord,
    EnterRecord,
    LeaveRecord,
    MarkerRecord,
    MsgRecord,
    ThreadTraceBuffer,
    TraceFile,
)


def build_trace():
    """A small trace touching every record type and two buffers."""
    trace = TraceFile("vgvz test app", record_bytes=24)
    trace.register_function(1, "main")
    trace.register_function(2, "solve me")
    b0 = ThreadTraceBuffer(0, 0)
    b0.enter(1, 0.0)
    b0.enter(2, 0.5)
    b0.leave(2, 1.5)
    b0.batch_pair(2, 100, 2.0, 1e-6, 5e-7)
    b0.message("send", 1, 7, 2048, 3.0)
    b0.collective("MPI_Allreduce", 4, 3.5, 3.6)
    b0.marker("suspended", 4.0, 5.0)
    b0.leave(1, 6.0)
    trace.add_buffer(b0)
    b1 = ThreadTraceBuffer(1, 2)
    b1.enter(1, 0.25)
    b1.message("recv", 0, 7, 2048, 0.5)
    b1.leave(1, 0.75)
    trace.add_buffer(b1)
    return trace


def records_equal(x, y):
    if type(x) is not type(y):
        return False
    for slot in x.__slots__:
        a, b = getattr(x, slot), getattr(y, slot)
        if isinstance(a, float):
            if float_to_bits(a) != float_to_bits(b):
                return False
        elif a != b:
            return False
    return True


def assert_same_traces(a, b):
    assert a.app_name == b.app_name
    assert a.record_bytes == b.record_bytes
    assert a.func_names == b.func_names
    assert sorted(a.buffers) == sorted(b.buffers)
    for key, buf in a.buffers.items():
        other = b.buffers[key]
        assert len(buf.records) == len(other.records)
        assert buf.raw_record_count == other.raw_record_count
        for x, y in zip(buf.records, other.records):
            assert records_equal(x, y), (x, y)


def test_roundtrip_every_record_type():
    trace = build_trace()
    data, stats = compress_trace_bytes(trace)
    assert_same_traces(trace, decompress_trace(data))
    assert stats.record_objects == 11
    assert stats.raw_records == trace.raw_record_count
    assert stats.model_bytes == trace.size_bytes
    assert stats.compact_bytes == len(data)


def test_compression_is_deterministic():
    trace = build_trace()
    first, _ = compress_trace_bytes(trace)
    second, _ = compress_trace_bytes(trace)
    assert first == second


def test_loop_heavy_stream_folds_and_shrinks():
    trace = TraceFile("loops")
    trace.register_function(1, "kernel")
    buf = ThreadTraceBuffer(0, 0)
    # Constant stride (leave is the period midpoint) — the shape a real
    # timestep loop approaches, and where the second-order delta codec
    # reaches its O(1)-bytes-per-iteration floor.
    t = 0.0
    for _ in range(5000):
        buf.enter(1, t)
        buf.leave(1, t + 0.5)
        t += 1.0
    trace.add_buffer(buf)
    data, stats = compress_trace_bytes(trace)
    assert stats.folds >= 1
    assert stats.folded_objects > 9000
    assert stats.bytes_per_record < 2.0  # the model charges 24
    assert stats.ratio > 12.0
    assert_same_traces(trace, decompress_trace(data))


def test_suppress_off_is_still_lossless_but_larger():
    trace = TraceFile("loops")
    trace.register_function(1, "kernel")
    buf = ThreadTraceBuffer(0, 0)
    for k in range(500):
        buf.enter(1, float(k))
        buf.leave(1, k + 0.5)
    trace.add_buffer(buf)
    on, stats_on = compress_trace_bytes(trace)
    off, stats_off = compress_trace_bytes(trace, suppress=False)
    assert stats_off.folds == 0
    assert len(off) > len(on)
    assert_same_traces(trace, decompress_trace(off))


def test_zero_duration_spans_roundtrip():
    trace = TraceFile("instant")
    trace.register_function(1, "f")
    buf = ThreadTraceBuffer(0, 0)
    for _ in range(10):
        buf.enter(1, 2.5)
        buf.leave(1, 2.5)  # zero-duration, zero-period: all equal stamps
    buf.marker("point", 3.0)  # t_end defaults to t_start
    trace.add_buffer(buf)
    data, _stats = compress_trace_bytes(trace)
    assert_same_traces(trace, decompress_trace(data))


def test_strict_time_rejects_out_of_order_records():
    fh = io.BytesIO()
    writer = CompactWriter(fh, strict_time=True)
    writer.begin_buffer(0, 0)
    writer.write(EnterRecord(1, 5.0))
    with pytest.raises(ValueError, match="out-of-order"):
        writer.write(EnterRecord(1, 4.0))


def test_default_mode_tolerates_out_of_order_records():
    trace = TraceFile("markers")
    buf = ThreadTraceBuffer(0, 0)
    buf.enter(1, 5.0)
    buf.leave(1, 6.0)
    buf.marker("suspended", 0.5, 1.0)  # finalisation appends out of order
    trace.add_buffer(buf)
    data, _stats = compress_trace_bytes(trace)
    assert_same_traces(trace, decompress_trace(data))


def test_writer_protocol_misuse_raises():
    writer = CompactWriter(io.BytesIO())
    with pytest.raises(ValueError, match="outside a buffer"):
        writer.write(EnterRecord(1, 0.0))
    with pytest.raises(ValueError, match="without an open buffer"):
        writer.end_buffer()
    writer.begin_buffer(0, 0)
    with pytest.raises(ValueError, match="inside an open buffer"):
        writer.begin_buffer(0, 1)


def test_reader_rejects_bad_magic_and_version():
    with pytest.raises(DecodeError, match="not a VGVZ"):
        CompactReader(b"NOPE\x01rest")
    good, _ = compress_trace_bytes(build_trace())
    with pytest.raises(DecodeError, match="version"):
        CompactReader(good[:4] + bytes([99]) + good[5:])


def test_reader_rejects_truncation():
    data, _ = compress_trace_bytes(build_trace())
    # Cutting the stream breaks the seal.
    with pytest.raises(DecodeError, match="checksum"):
        decompress_trace(data[: len(data) // 2])


def test_reader_rejects_zero_width_loop():
    # The writer never emits an empty LOOP body; decoding one would spin
    # n times without consuming a byte (n = 10**12 hangs the reader).
    # Correctly sealed, so the LOOP guard and not the seal refuses it.
    w = Writer(MAGIC, VERSION)
    w.string("")                  # header: app ""
    w.out += b"\x18"              # record_bytes 24
    w.out += b"\x01\x00\x00"      # BUF process 0, thread 0
    w.out += b"\x20\x00\x03"      # LOOP width 0, n 3
    data = w.seal()
    assert len(data) == 18
    with pytest.raises(DecodeError, match="zero-width"):
        list(CompactReader(data).iter_records())


@pytest.mark.parametrize("where", ("payload", "seal"))
def test_checksum_mismatch_detected(where):
    data, _stats = compress_trace_bytes(build_trace())
    corrupt = bytearray(data)
    corrupt[len(data) // 2 if where == "payload" else -1] ^= 0x01
    with pytest.raises(DecodeError, match="checksum mismatch"):
        decompress_trace(bytes(corrupt))


def test_record_key_distinguishes_structures():
    assert record_key(EnterRecord(1, 0.0)) == record_key(EnterRecord(1, 9.9))
    assert record_key(EnterRecord(1, 0.0)) != record_key(LeaveRecord(1, 0.0))
    assert record_key(BatchPairRecord(1, 5, 0, 1, 1)) != \
        record_key(BatchPairRecord(1, 6, 0, 1, 1))


def test_expand_batch_pairs_yields_2n_pairs():
    batch = BatchPairRecord(3, 4, 10.0, 2.0, 0.5)
    out = list(expand_batch_pairs([EnterRecord(1, 0.0), batch]))
    assert len(out) == 1 + 8
    enters = [r for r in out[1:] if isinstance(r, EnterRecord)]
    leaves = [r for r in out[1:] if isinstance(r, LeaveRecord)]
    assert [r.t for r in enters] == [10.0, 12.0, 14.0, 16.0]
    assert [r.t for r in leaves] == [10.5, 12.5, 14.5, 16.5]


def test_measure_compact_bytes_excludes_file_overhead():
    records = []
    for k in range(100):
        records.append(EnterRecord(1, float(k)))
        records.append(LeaveRecord(1, k + 0.5))
    size = measure_compact_bytes(records)
    assert 0 < size < 200 * 24  # far below the analytic model
    assert measure_compact_bytes([]) < 16  # just buffer framing


def test_iter_records_is_streaming_and_tagged():
    trace = build_trace()
    data, _ = compress_trace_bytes(trace)
    seen = list(CompactReader(data).iter_records())
    assert {(p, t) for p, t, _r in seen} == {(0, 0), (1, 2)}
    assert sum(1 for _p, _t, _r in seen) == 11


GOLDEN_SHA256 = "7dd1956ef9daa3f7377ad7af19f93b0d4dd27cf60e6f55c5df31ff6a49f6075a"


def test_golden_compressed_digest():
    """The byte stream for a fixed input is pinned.

    Any codec change that alters the format (opcode layout, interning,
    delta framing, suppression behaviour) must consciously update this
    digest — silent format drift would break archived traces.
    """
    data, stats = compress_trace_bytes(build_trace())
    assert data[:5] == b"VGVZ\x02"
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256
    assert stats.raw_records == 210  # 10 singles + 2x100 batch


# -- property: arbitrary interleaved streams round-trip -----------------------


finite_ts = st.floats(allow_nan=False, allow_infinity=False,
                      min_value=-1e9, max_value=1e9)
any_float = st.floats(allow_nan=True, allow_infinity=True)
fids = st.integers(min_value=0, max_value=50)

record_strategy = st.one_of(
    st.builds(EnterRecord, fids, any_float),
    st.builds(LeaveRecord, fids, any_float),
    st.builds(BatchPairRecord, fids, st.integers(min_value=0, max_value=30),
              finite_ts, finite_ts, finite_ts),
    st.builds(MsgRecord, st.sampled_from(["send", "recv"]),
              st.integers(min_value=-4, max_value=64),
              st.integers(min_value=-1, max_value=999),
              st.integers(min_value=0, max_value=2**32), any_float),
    st.builds(CollectiveRecord, st.sampled_from(["MPI_Barrier", "MPI_Bcast"]),
              st.integers(min_value=1, max_value=512), finite_ts, finite_ts),
    st.builds(MarkerRecord, st.sampled_from(["suspended", "flush", ""]),
              any_float, any_float),
)


@given(
    streams=st.lists(
        st.lists(record_strategy, max_size=40), min_size=1, max_size=3
    )
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property_arbitrary_streams(streams):
    trace = TraceFile("prop", record_bytes=24)
    trace.register_function(1, "f")
    for process, records in enumerate(streams):
        buf = ThreadTraceBuffer(process, 0)
        for rec in records:
            buf.records.append(rec)
            buf._raw_count += rec.record_count()
        trace.add_buffer(buf)
    data, stats = compress_trace_bytes(trace)
    again = decompress_trace(data)
    assert stats.raw_records == trace.raw_record_count
    # Empty buffers vanish (no records to reconstruct them from); every
    # surviving record must match bit for bit, in order.
    for (process, thread), buf in trace.buffers.items():
        if not buf.records:
            assert (process, thread) not in again.buffers
            continue
        other = again.buffers[(process, thread)]
        assert len(other.records) == len(buf.records)
        for x, y in zip(buf.records, other.records):
            assert records_equal(x, y), (x, y)
