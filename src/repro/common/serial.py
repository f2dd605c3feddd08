"""Tag-length-value (TLV) binary record codec.

The display record log (section 4.1) and the checkpoint image format
(section 5) are both append-only streams of typed binary records.  This
module provides the shared framing: each record is

    +--------+------------+-----------------+---------+
    | tag:u32| length:u32 | payload (bytes) | crc:u32 |
    +--------+------------+-----------------+---------+

in little-endian byte order, preceded once per stream by a magic header that
identifies the stream kind and format version.  The trailing CRC-32 covers
the record header and payload, so a record torn by a crash mid-write is
detected (truncated or mismatched checksum) rather than silently misparsed.
Format version 2 added the checksum trailer; version-1 streams are rejected.
Format version 3 (checkpoint images only) keeps the identical framing but
marks streams whose page records are *digest references* into the
content-addressed page store instead of inline payloads; readers accept
both versions and expose :attr:`RecordReader.version` so the image codec
can pick the right record interpretation.

Streams are written to any file-like object with ``write``; in this
reproduction that is usually a :class:`io.BytesIO` held by the simulated
disk, but the format works equally against real files.

In-memory streams decode without a file object: :class:`BufferReader`
walks a :class:`memoryview` by offset, yielding zero-copy payload slices
lazily with the same checks and :class:`StreamCorrupt` messages as
:class:`RecordReader`, and :meth:`BufferReader.fixed_records` bulk-parses
a run of same-shaped records (one ``struct.iter_unpack`` pass plus a
per-record CRC) — the checkpoint image codec's read path.

Crash-recovery helpers: :meth:`RecordWriter.write_torn` deliberately emits a
partial record (fault injection), :meth:`RecordWriter.truncate_to` discards a
torn tail, and :func:`scan_valid_prefix` finds the longest valid prefix of a
possibly-torn stream.
"""

import io
import operator
import struct
import zlib

_HEADER = struct.Struct("<4sHH")
_RECORD = struct.Struct("<II")
_CRC = struct.Struct("<I")

# Column pickers for bulk-parsed ``(tag, length, *fields, crc)`` rows.
_TAG_LENGTH = operator.itemgetter(0, 1)
_LAST = operator.itemgetter(-1)
_FIELDS = operator.itemgetter(slice(2, -1))

MAGIC = b"DJVW"
FORMAT_VERSION = 2
#: Streams whose page records reference the content-addressed store.
FORMAT_VERSION_MANIFEST = 3
SUPPORTED_VERSIONS = (FORMAT_VERSION, FORMAT_VERSION_MANIFEST)


class StreamCorrupt(ValueError):
    """The byte stream does not parse as a valid TLV record stream."""


class RecordWriter:
    """Appends TLV records to a binary stream.

    Parameters
    ----------
    fileobj:
        Writable binary file-like object.  If ``None``, an internal
        :class:`io.BytesIO` is created and exposed via :attr:`fileobj`.
    kind:
        16-bit stream kind identifier written into the header (e.g. display
        log vs checkpoint image), so readers can refuse mismatched streams.
    """

    def __init__(self, fileobj=None, kind=0, version=FORMAT_VERSION):
        if version not in SUPPORTED_VERSIONS:
            raise ValueError("unsupported format version %r" % (version,))
        self.fileobj = fileobj if fileobj is not None else io.BytesIO()
        self.kind = kind
        self.version = version
        self._bytes_written = 0
        header = _HEADER.pack(MAGIC, version, kind)
        self.fileobj.write(header)
        self._bytes_written += len(header)

    @property
    def bytes_written(self):
        """Total bytes emitted, including the stream header."""
        return self._bytes_written

    def write(self, tag, payload):
        """Append one record; returns the offset at which it was written."""
        if not 0 <= tag < 2**32:
            raise ValueError("tag out of range: %r" % (tag,))
        payload = bytes(payload)
        offset = self._bytes_written
        head = _RECORD.pack(tag, len(payload))
        self.fileobj.write(head)
        self.fileobj.write(payload)
        self.fileobj.write(_CRC.pack(zlib.crc32(head + payload)))
        self._bytes_written += _RECORD.size + len(payload) + _CRC.size
        return offset

    def write_torn(self, tag, payload, keep=0.5):
        """Append a deliberately torn record: the header plus only a
        ``keep`` fraction of the payload, with no checksum trailer —
        exactly what a crash mid-``write`` leaves behind.  Fault
        injection only; returns the offset of the torn record."""
        payload = bytes(payload)
        offset = self._bytes_written
        head = _RECORD.pack(tag, len(payload))
        partial = payload[:int(len(payload) * keep)]
        self.fileobj.write(head)
        self.fileobj.write(partial)
        self._bytes_written += _RECORD.size + len(partial)
        return offset

    def truncate_to(self, offset):
        """Discard everything at and after ``offset`` (recovery: drop a
        torn tail).  Returns the number of bytes dropped."""
        if not _HEADER.size <= offset <= self._bytes_written:
            raise ValueError("truncate offset %d outside stream" % offset)
        dropped = self._bytes_written - offset
        self.fileobj.seek(offset)
        self.fileobj.truncate()
        self._bytes_written = offset
        return dropped

    def getvalue(self):
        """Return the full stream bytes (only for BytesIO-backed writers)."""
        return self.fileobj.getvalue()

    @classmethod
    def resume(cls, fileobj, expect_kind=None):
        """Reopen an existing (possibly torn) stream for appending.

        Validates the header, scans the longest valid record prefix,
        truncates any torn tail, and returns ``(writer, dropped_bytes,
        record_count)`` with the writer positioned to append after the
        last intact record.  This is how the flight-recorder ring journal
        reuses its newest segment after an unclean shutdown instead of
        abandoning it.  Raises :class:`StreamCorrupt` if the header
        itself is invalid (nothing is resumable then).
        """
        fileobj.seek(0)
        reader = RecordReader(fileobj, expect_kind=expect_kind)
        count = 0
        end_offset = _HEADER.size
        while True:
            try:
                record = next(reader, None)
            except StreamCorrupt:
                break
            if record is None:
                break
            count += 1
            end_offset = fileobj.tell()
        fileobj.seek(0, io.SEEK_END)
        stream_end = fileobj.tell()
        writer = cls.__new__(cls)
        writer.fileobj = fileobj
        writer.kind = reader.kind
        writer.version = reader.version
        writer._bytes_written = stream_end
        dropped = writer.truncate_to(end_offset) if stream_end > end_offset \
            else 0
        return writer, dropped, count


def _read_record(fileobj, offset):
    """Read and verify one record at the stream's current position."""
    head = fileobj.read(_RECORD.size)
    if not head:
        return None
    if len(head) != _RECORD.size:
        raise StreamCorrupt("truncated record header at offset %d" % offset)
    tag, length = _RECORD.unpack(head)
    payload = fileobj.read(length)
    if len(payload) != length:
        raise StreamCorrupt("truncated record payload at offset %d" % offset)
    trailer = fileobj.read(_CRC.size)
    if len(trailer) != _CRC.size:
        raise StreamCorrupt("truncated record checksum at offset %d" % offset)
    (crc,) = _CRC.unpack(trailer)
    if crc != zlib.crc32(head + payload):
        raise StreamCorrupt("record checksum mismatch at offset %d" % offset)
    return tag, payload


def _parse_header(header, expect_kind):
    """Validate a stream header; returns ``(kind, version)``."""
    if len(header) != _HEADER.size:
        raise StreamCorrupt("stream shorter than header")
    magic, version, kind = _HEADER.unpack(header)
    if magic != MAGIC:
        raise StreamCorrupt("bad magic %r" % (magic,))
    if version not in SUPPORTED_VERSIONS:
        raise StreamCorrupt("unsupported format version %d" % version)
    if expect_kind is not None and kind != expect_kind:
        raise StreamCorrupt(
            "stream kind %d does not match expected %d" % (kind, expect_kind)
        )
    return kind, version


class RecordReader:
    """Iterates TLV records from bytes or a readable binary stream."""

    def __init__(self, data, expect_kind=None):
        if isinstance(data, (bytes, bytearray, memoryview)):
            self.fileobj = io.BytesIO(bytes(data))
        else:
            self.fileobj = data
        self.kind, self.version = _parse_header(
            self.fileobj.read(_HEADER.size), expect_kind)

    def __iter__(self):
        return self

    def __next__(self):
        """Return the next ``(tag, payload, offset)`` triple."""
        offset = self.fileobj.tell()
        record = _read_record(self.fileobj, offset)
        if record is None:
            raise StopIteration
        tag, payload = record
        return tag, payload, offset

    def seek_to(self, offset):
        """Position the reader at a record offset previously returned by a
        writer, so iteration resumes from that record."""
        self.fileobj.seek(offset)
        return self


class BufferReader:
    """Decodes TLV records straight out of an in-memory buffer.

    Nothing is copied: :meth:`records` yields ``(tag, payload, offset)``
    with ``payload`` a :class:`memoryview` slice of ``data``, verifying
    each record's bounds and CRC-32 as it goes and raising the same
    :class:`StreamCorrupt` messages (at the same offsets) as
    :class:`RecordReader`.  :attr:`kind`, :attr:`version` and the header
    checks match :class:`RecordReader` too.
    """

    def __init__(self, data, expect_kind=None):
        self.view = memoryview(data).cast("B")
        self.kind, self.version = _parse_header(
            self.view[:_HEADER.size], expect_kind)

    def records(self, offset=_HEADER.size):
        """Lazily yield every record from ``offset`` to the end."""
        view = self.view
        end = len(view)
        unpack_head = _RECORD.unpack_from
        unpack_crc = _CRC.unpack_from
        crc32 = zlib.crc32
        while offset < end:
            if end - offset < _RECORD.size:
                raise StreamCorrupt(
                    "truncated record header at offset %d" % offset)
            tag, length = unpack_head(view, offset)
            body = offset + _RECORD.size
            stop = body + length
            if stop > end:
                raise StreamCorrupt(
                    "truncated record payload at offset %d" % offset)
            if stop + _CRC.size > end:
                raise StreamCorrupt(
                    "truncated record checksum at offset %d" % offset)
            if unpack_crc(view, stop)[0] != crc32(view[offset:stop]):
                raise StreamCorrupt(
                    "record checksum mismatch at offset %d" % offset)
            yield tag, view[body:stop], offset
            offset = stop + _CRC.size

    @staticmethod
    def end_of(offset, payload):
        """Offset just past the record at ``offset`` carrying ``payload``."""
        return offset + _RECORD.size + len(payload) + _CRC.size

    def fixed_records(self, offset, tag, body):
        """Bulk-parse the records from ``offset`` to the end when every
        one is a ``tag`` record whose payload is exactly ``body`` (a
        :class:`struct.Struct`) and every CRC verifies.

        Returns the list of ``body`` field tuples, or ``None`` when the
        run is not uniform or fails a check — the caller then walks
        :meth:`records` to find and report the first bad record.
        """
        shape = struct.Struct("<II%sI" % body.format.lstrip("<=!>"))
        run = self.view[offset:]
        size = shape.size
        if len(run) % size:
            return None
        rows = list(shape.iter_unpack(run))
        if not set(map(_TAG_LENGTH, rows)) <= {(tag, body.size)}:
            return None
        # Every CRC in one C-level pass: slice each record's signed bytes
        # (header + payload) out of the run and checksum it.
        signed = map(run.__getitem__, map(
            slice, range(0, len(run), size),
            range(size - _CRC.size, len(run), size)))
        if list(map(zlib.crc32, signed)) != list(map(_LAST, rows)):
            return None
        return list(map(_FIELDS, rows))


def read_at(data, offset):
    """Random-access read of the single record at ``offset``.

    ``data`` may be bytes or a seekable stream.  Returns ``(tag, payload)``.
    This is how the playback engine fetches screenshots and commands located
    via the timeline index without scanning the whole log.
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        fileobj = io.BytesIO(bytes(data))
    else:
        fileobj = data
    fileobj.seek(offset)
    record = _read_record(fileobj, offset)
    if record is None:
        raise StreamCorrupt("no record at offset %d" % offset)
    return record


def scan_valid_prefix(data, expect_kind=None):
    """Find the longest valid prefix of a possibly-torn stream.

    Returns ``(end_offset, records)`` where ``records`` is a list of
    ``(tag, payload, offset)`` triples that parse and checksum cleanly
    and ``end_offset`` is the first byte past the last valid record —
    the offset to :meth:`RecordWriter.truncate_to` during recovery.
    Raises :class:`StreamCorrupt` only if the stream *header* itself is
    invalid (nothing is salvageable then).
    """
    reader = RecordReader(data, expect_kind=expect_kind)
    records = []
    end_offset = _HEADER.size
    while True:
        try:
            record = next(reader, None)
        except StreamCorrupt:
            break
        if record is None:
            break
        records.append(record)
        end_offset = reader.fileobj.tell()
    return end_offset, records
