"""Unit tests for the TLV record codec."""

import io
import re
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.serial import (
    BufferReader,
    RecordReader,
    RecordWriter,
    StreamCorrupt,
    read_at,
)


class TestRecordWriter:
    def test_header_written_on_construction(self):
        writer = RecordWriter(kind=7)
        data = writer.getvalue()
        assert data.startswith(b"DJVW")
        assert writer.bytes_written == len(data)

    def test_write_returns_offset(self):
        writer = RecordWriter()
        off1 = writer.write(1, b"abc")
        off2 = writer.write(2, b"defg")
        assert off2 > off1 > 0

    def test_tag_out_of_range_rejected(self):
        writer = RecordWriter()
        with pytest.raises(ValueError):
            writer.write(-1, b"")
        with pytest.raises(ValueError):
            writer.write(2**32, b"")

    def test_external_fileobj(self):
        buf = io.BytesIO()
        writer = RecordWriter(buf)
        writer.write(5, b"payload")
        assert buf.getvalue().startswith(b"DJVW")


class TestRecordReader:
    def test_roundtrip(self):
        writer = RecordWriter(kind=3)
        writer.write(10, b"first")
        writer.write(20, b"second")
        records = list(RecordReader(writer.getvalue(), expect_kind=3))
        assert [(t, p) for t, p, _o in records] == [(10, b"first"), (20, b"second")]

    def test_offsets_support_random_access(self):
        writer = RecordWriter()
        writer.write(1, b"aaa")
        off = writer.write(2, b"bbb")
        tag, payload = read_at(writer.getvalue(), off)
        assert (tag, payload) == (2, b"bbb")

    def test_seek_to_resumes_iteration(self):
        writer = RecordWriter()
        writer.write(1, b"x")
        off = writer.write(2, b"y")
        writer.write(3, b"z")
        reader = RecordReader(writer.getvalue()).seek_to(off)
        tags = [t for t, _p, _o in reader]
        assert tags == [2, 3]

    def test_kind_mismatch_rejected(self):
        writer = RecordWriter(kind=1)
        with pytest.raises(StreamCorrupt):
            RecordReader(writer.getvalue(), expect_kind=2)

    def test_bad_magic_rejected(self):
        with pytest.raises(StreamCorrupt):
            RecordReader(b"XXXX\x01\x00\x00\x00")

    def test_short_stream_rejected(self):
        with pytest.raises(StreamCorrupt):
            RecordReader(b"DJ")

    def test_truncated_payload_detected(self):
        writer = RecordWriter()
        writer.write(1, b"full-payload")
        data = writer.getvalue()[:-3]
        reader = RecordReader(data)
        with pytest.raises(StreamCorrupt):
            list(reader)

    def test_read_at_bad_offset(self):
        writer = RecordWriter()
        writer.write(1, b"x")
        with pytest.raises(StreamCorrupt):
            read_at(writer.getvalue(), len(writer.getvalue()))

    def test_empty_stream_iterates_nothing(self):
        writer = RecordWriter()
        assert list(RecordReader(writer.getvalue())) == []


@given(
    records=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**32 - 1), st.binary(max_size=200)),
        max_size=30,
    )
)
def test_property_tlv_roundtrip(records):
    """Any sequence of (tag, payload) records survives a write/read cycle."""
    writer = RecordWriter(kind=9)
    offsets = [writer.write(tag, payload) for tag, payload in records]
    out = [(t, p) for t, p, _o in RecordReader(writer.getvalue(), expect_kind=9)]
    assert out == records
    for offset, (tag, payload) in zip(offsets, records):
        assert read_at(writer.getvalue(), offset) == (tag, payload)


class TestResume:
    def _stream(self, kind=9, records=3):
        writer = RecordWriter(kind=kind)
        for i in range(records):
            writer.write(i + 1, b"payload-%d" % i)
        return writer

    def test_resume_clean_stream_appends(self):
        buf = io.BytesIO(self._stream().getvalue())
        writer, dropped, count = RecordWriter.resume(buf, expect_kind=9)
        assert (dropped, count) == (0, 3)
        assert writer.kind == 9
        writer.write(7, b"appended")
        tags = [tag for tag, _p, _o in RecordReader(
            io.BytesIO(buf.getvalue()), expect_kind=9)]
        assert tags == [1, 2, 3, 7]

    def test_resume_truncates_torn_tail(self):
        data = self._stream().getvalue() + b"\xff\xee torn tail"
        buf = io.BytesIO(data)
        writer, dropped, count = RecordWriter.resume(buf, expect_kind=9)
        assert count == 3
        assert dropped == len(b"\xff\xee torn tail")
        writer.write(4, b"after")
        records = list(RecordReader(io.BytesIO(buf.getvalue())))
        assert [tag for tag, _p, _o in records] == [1, 2, 3, 4]
        assert writer.bytes_written == len(buf.getvalue())

    def test_resume_header_only_stream(self):
        buf = io.BytesIO(RecordWriter(kind=2).getvalue())
        writer, dropped, count = RecordWriter.resume(buf, expect_kind=2)
        assert (dropped, count) == (0, 0)
        writer.write(1, b"first")
        assert [t for t, _p, _o in RecordReader(
            io.BytesIO(buf.getvalue()))] == [1]

    def test_resume_rejects_wrong_kind_or_bad_header(self):
        buf = io.BytesIO(self._stream(kind=9).getvalue())
        with pytest.raises(StreamCorrupt):
            RecordWriter.resume(buf, expect_kind=10)
        with pytest.raises(StreamCorrupt):
            RecordWriter.resume(io.BytesIO(b"not a stream at all"))


def _walk(reader_records):
    """Drain a record iterator: ``(records, error message or None)``."""
    out = []
    try:
        for tag, payload, offset in reader_records:
            out.append((tag, bytes(payload), offset))
    except StreamCorrupt as exc:
        return out, str(exc)
    return out, None


@given(
    records=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**32 - 1),
                  st.binary(max_size=64)),
        max_size=12,
    ),
    data=st.data(),
)
def test_property_buffer_reader_matches_record_reader(records, data):
    """The in-memory reader yields the same records and raises the same
    errors, at the same offsets, as the stream reader — on intact,
    truncated and byte-flipped streams alike."""
    writer = RecordWriter(kind=9)
    for tag, payload in records:
        writer.write(tag, payload)
    stream = writer.getvalue()
    damage = data.draw(st.sampled_from(["none", "truncate", "flip"]))
    if damage == "truncate":
        stream = stream[:data.draw(st.integers(0, len(stream)))]
    elif damage == "flip":
        at = data.draw(st.integers(0, len(stream) - 1))
        stream = stream[:at] + bytes([stream[at] ^ 0x5A]) + stream[at + 1:]
    try:
        expected = _walk(RecordReader(stream))
    except StreamCorrupt as exc:  # header damage
        with pytest.raises(StreamCorrupt, match=re.escape(str(exc))):
            BufferReader(stream)
        return
    assert _walk(BufferReader(stream).records()) == expected


class TestBufferReaderFixedRecords:
    SHAPE = struct.Struct("<IQ")

    def _stream(self, rows, tag=4):
        writer = RecordWriter()
        writer.write(1, b"head")
        start = writer.bytes_written
        for row in rows:
            writer.write(tag, self.SHAPE.pack(*row))
        return writer.getvalue(), start

    def test_bulk_parse_matches_payloads(self):
        rows = [(i, i * 4096) for i in range(50)]
        data, start = self._stream(rows)
        assert BufferReader(data).fixed_records(start, 4, self.SHAPE) == rows

    def test_empty_run(self):
        data, start = self._stream([])
        assert BufferReader(data).fixed_records(start, 4, self.SHAPE) == []

    def test_non_uniform_runs_are_refused(self):
        rows = [(1, 2), (3, 4)]
        data, start = self._stream(rows, tag=5)
        assert BufferReader(data).fixed_records(start, 4, self.SHAPE) is None
        data, start = self._stream(rows)
        reader = BufferReader(data[:-1])
        assert reader.fixed_records(start, 4, self.SHAPE) is None
        flipped = data[:start + 9] + bytes([data[start + 9] ^ 1]) + \
            data[start + 10:]
        reader = BufferReader(flipped)
        assert reader.fixed_records(start, 4, self.SHAPE) is None
        with pytest.raises(StreamCorrupt, match="checksum mismatch"):
            list(reader.records(start))
