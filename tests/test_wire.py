"""The shared wire primitives and the bytes the four codecs emit.

Dedup digests, the bandwidth ledger (``wire_bytes``) and every frame a
pod or shard ships depend on the exact encodings, so they are pinned
here on live inputs: a change to any codec that alters a single byte
fails this file.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.exec.batch import decode_batch, encode_batch
from repro.progmodel.serialize import encode_program
from repro.tracing.encode import decode_trace, encode_trace
from repro.tree.encode import encode_tree
from repro.wire import Reader, write_string, write_varint, write_zigzag


def _pin(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TestPinnedEncodings:
    def test_trace(self, crash_demo_trace):
        assert _pin(encode_trace(crash_demo_trace)) == "34229050a30dd925"

    def test_tree(self, hive_tree):
        assert _pin(encode_tree(hive_tree)) == "e6f26e1fdf3e62dd"

    def test_program(self, corpus_program):
        assert _pin(encode_program(corpus_program)) == "5f5fb41ede012929"

    def test_batch(self, live_frame):
        assert any(entry.is_heartbeat for entry in live_frame.entries)
        assert any(not entry.is_heartbeat for entry in live_frame.entries)
        assert live_frame.trace_context is not None
        data = encode_batch(live_frame)
        assert _pin(data) == "33a6fcafdd082d53"
        assert encode_batch(decode_batch(data)) == data


#: Every int, with extra weight on the 64-bit boundary where a
#: sign-folding zigzag would break.
ints = st.one_of(
    st.integers(),
    st.builds(lambda sign, power, k: sign * 2 ** power + k,
              st.sampled_from((1, -1)), st.sampled_from((63, 64)),
              st.integers(-3, 3)))


class TestZigzag:
    @settings(max_examples=300, deadline=None)
    @given(ints)
    def test_primitive_round_trip(self, value):
        out = bytearray()
        write_zigzag(out, value)
        reader = Reader(bytes(out))
        assert reader.zigzag() == value
        reader.expect_end("zigzag")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(ints, max_size=6))
    def test_trace_round_trip(self, crash_demo_trace, values):
        trace = dataclasses.replace(crash_demo_trace,
                                    syscall_returns=tuple(values))
        assert decode_trace(encode_trace(trace)) == trace

    @pytest.mark.parametrize("value, wire", [
        (0, b"\x00"), (-1, b"\x01"), (1, b"\x02"), (-64, b"\x7f"),
        (64, b"\x80\x01"), (2 ** 63 - 1, b"\xfe" + b"\xff" * 8 + b"\x01"),
    ])
    def test_encodings_below_2_63_are_unchanged(self, value, wire):
        out = bytearray()
        write_zigzag(out, value)
        assert bytes(out) == wire


class TestReader:
    def test_bad_utf8_is_a_trace_error_on_bytes_and_views(self):
        out = bytearray()
        write_varint(out, 2)
        out += b"\xc3\x28"
        for data in (bytes(out), memoryview(bytes(out))):
            with pytest.raises(TraceError, match="UTF-8"):
                Reader(data).string()

    def test_string_round_trip_over_a_view(self):
        out = bytearray()
        write_string(out, "héllo")
        assert Reader(memoryview(bytes(out))).string() == "héllo"

    def test_truncation_and_trailing_bytes(self):
        with pytest.raises(TraceError, match="truncated"):
            Reader(b"\x80").varint()
        with pytest.raises(TraceError, match="truncated"):
            Reader(b"\x05ab").string()
        with pytest.raises(TraceError, match="trailing bytes after thing"):
            Reader(b"\x00").expect_end("thing")

    def test_negative_varint_is_refused(self):
        with pytest.raises(TraceError, match="negative"):
            write_varint(bytearray(), -1)
