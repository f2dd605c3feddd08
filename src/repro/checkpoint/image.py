"""Checkpoint image format.

An image captures everything section 5.2 lists for revive: per-process run
state, program name, scheduling parameters, credentials, pending and blocked
signals, CPU registers, FPU state, ptrace information, file system
namespace, open files, signal handling information, and virtual memory.

Incremental images (section 5.1.2) save only the pages modified since the
previous checkpoint.  To make any image in the chain revivable on its own,
each image also carries a **page-location directory**: for every page
resident at checkpoint time, the id of the image that holds its latest
saved copy ("when the restoration process encounters a memory region that
is contained in another file, as marked by its list of saved memory
regions, it opens the appropriate file and retrieves the necessary pages").

Serialization is TLV and comes in two on-disk formats:

* **v2 (whole blob)** — a JSON metadata record followed by one
  ``TAG_PAGE`` record per saved page carrying the page payload inline.
  Page payloads dominate, as the paper observes ("the memory state of the
  processes dominates the checkpoint image").
* **v3 (manifest)** — the same metadata record followed by one
  ``TAG_PAGE_REF`` record per saved page carrying only the SHA-1 digest
  of the page content.  Payloads live in the storage layer's
  content-addressed page store, shared across every image that saved an
  identical page; the stream header's format version distinguishes the
  two so v2 blobs remain readable.
"""

import hashlib
import json
import operator
import struct

from repro.common.errors import CheckpointError
from repro.common.serial import (
    FORMAT_VERSION,
    FORMAT_VERSION_MANIFEST,
    BufferReader,
    RecordWriter,
)

STREAM_KIND_CHECKPOINT = 0xC4E7

TAG_METADATA = 1
TAG_PAGE = 2
TAG_PAGE_REF = 3

_PAGE_HEADER = struct.Struct("<IQI")  # vpid, region start, page index

#: SHA-1 digest length: the content address of one page.
DIGEST_SIZE = hashlib.sha1().digest_size

#: A whole ``TAG_PAGE_REF`` payload: page header plus digest.
_PAGE_REF = struct.Struct("<IQI%ds" % DIGEST_SIZE)
_REF_KEY = operator.itemgetter(0, 1, 2)
_REF_DIGEST = operator.itemgetter(3)


def page_digest(content):
    """The content address of one page payload (raw SHA-1 digest)."""
    return hashlib.sha1(bytes(content)).digest()


def _page_key_str(key):
    vpid, region_start, page_index = key
    return "%d:%d:%d" % (vpid, region_start, page_index)


def _page_keys_from_strs(texts):
    """Parse ``"vpid:start:index"`` keys in one pass: a single join,
    split and ``int`` map over all of them instead of a split per key."""
    if not texts:
        return []
    fields = list(map(int, ":".join(texts).split(":")))
    if len(fields) != 3 * len(texts):
        raise CheckpointError("malformed page-location key in image")
    return list(zip(fields[0::3], fields[1::3], fields[2::3]))


def _decode(data):
    """Decode a serialized image's framing; the one image decoder.

    Returns ``(metadata payload, manifest, pages)`` where ``pages`` is
    ``{key: digest}`` for a v3 manifest stream and ``{key: payload}``
    for a v2 blob.  The metadata record is CRC-checked but left
    undecoded — callers that only need the pages never pay for its
    JSON.  Fixed-size ``TAG_PAGE_REF`` runs parse in bulk; anything else
    (v2 payloads, or a v3 run that fails the bulk checks) is walked
    record by record, which also raises the precise error for the first
    bad record.
    """
    reader = BufferReader(data, expect_kind=STREAM_KIND_CHECKPOINT)
    records = reader.records()
    first = next(records, None)
    if first is None:
        raise CheckpointError("empty checkpoint image")
    tag, meta, offset = first
    if tag != TAG_METADATA:
        raise CheckpointError("checkpoint image must begin with metadata")
    manifest = reader.version == FORMAT_VERSION_MANIFEST
    if manifest:
        rows = reader.fixed_records(reader.end_of(offset, meta),
                                    TAG_PAGE_REF, _PAGE_REF)
        if rows is not None:
            return meta, True, dict(zip(map(_REF_KEY, rows),
                                        map(_REF_DIGEST, rows)))
    expected_tag = TAG_PAGE_REF if manifest else TAG_PAGE
    pages = {}
    for tag, payload, _off in records:
        if tag != expected_tag:
            raise CheckpointError("unexpected record tag %d in image" % tag)
        key = _PAGE_HEADER.unpack_from(payload)
        body = bytes(payload[_PAGE_HEADER.size:])
        if manifest and len(body) != DIGEST_SIZE:
            raise CheckpointError(
                "malformed digest reference for page %r" % (key,))
        pages[key] = body
    return meta, manifest, pages


def page_map(data):
    """The pages one serialized image holds, without decoding its
    metadata: ``(manifest, {key: digest})`` for a v3 stream (resolve the
    digests in the content-addressed store) and ``(False, {key:
    payload})`` for a v2 blob."""
    _meta, manifest, pages = _decode(data)
    return manifest, pages


class CheckpointImage:
    """One checkpoint of a container.

    Attributes
    ----------
    checkpoint_id:
        The monotonically increasing checkpoint counter; also recorded in
        the file system log (section 5.1.1).
    parent_id:
        Previous checkpoint in the incremental chain (None for the first).
    full:
        True when every resident page is saved in this image.
    fs_txn:
        The file system snapshot transaction bound to this checkpoint.
    processes:
        Per-process state records (dicts; see ``Process`` snapshots).
    regions:
        ``{vpid: [region metadata, ...]}``.
    pages:
        ``{(vpid, region_start, page_index): bytes}`` saved in THIS image.
    page_locations:
        ``{(vpid, region_start, page_index): image_id}`` for every page
        resident at checkpoint time.
    page_digests:
        ``{(vpid, region_start, page_index): sha1 digest}`` manifest for
        the pages saved in this image.  Populated by a v3 deserialize (the
        payloads then live in the content-addressed page store) or by
        :meth:`serialize` when writing format 3; empty for v2 round trips.
    """

    def __init__(self, checkpoint_id, timestamp_us, container_name,
                 parent_id=None, full=True, fs_txn=None):
        self.checkpoint_id = checkpoint_id
        self.timestamp_us = timestamp_us
        self.container_name = container_name
        self.parent_id = parent_id
        self.full = full
        self.fs_txn = fs_txn
        self.processes = []
        self.regions = {}
        self.pages = {}
        self.page_locations = {}
        self.page_digests = {}
        self.relinked_files = []  # [(vpid, fd, relink path), ...]
        self._sealed_metadata = None  # see seal_metadata()

    # ------------------------------------------------------------------ #
    # Size accounting

    @property
    def saved_page_count(self):
        return len(self.pages)

    @property
    def page_bytes(self):
        return sum(len(content) for content in self.pages.values())

    @property
    def metadata_bytes(self):
        return len(self._metadata_json())

    @property
    def nbytes(self):
        """Uncompressed serialized size (approximate until serialized)."""
        return self.metadata_bytes + self.page_bytes + 16 * len(self.pages)

    # ------------------------------------------------------------------ #
    # Serialization

    def seal_metadata(self):
        """Encode the metadata record once: later size queries and
        :meth:`serialize` reuse these bytes instead of re-encoding the
        JSON.  Call it only once the metadata is final — the checkpoint
        engine does at writeback, after which only page payloads (which
        the record does not cover) are filled in."""
        self._sealed_metadata = None
        self._sealed_metadata = self._metadata_json()

    def _metadata_json(self):
        if self._sealed_metadata is not None:
            return self._sealed_metadata
        meta = {
            "checkpoint_id": self.checkpoint_id,
            "timestamp_us": self.timestamp_us,
            "container_name": self.container_name,
            "parent_id": self.parent_id,
            "full": self.full,
            "fs_txn": self.fs_txn,
            "processes": self.processes,
            "regions": {str(vpid): regs for vpid, regs in self.regions.items()},
            "page_locations": {
                _page_key_str(key): image_id
                for key, image_id in self.page_locations.items()
            },
            "relinked_files": self.relinked_files,
        }
        return json.dumps(meta, separators=(",", ":")).encode("utf-8")

    def manifest(self):
        """``{key: digest}`` for every page saved in this image.

        Digests come from :attr:`page_digests` when present (a v3
        deserialize carries no payloads) and are computed from
        :attr:`pages` otherwise, so the manifest is always available no
        matter which format the image came from.
        """
        out = {}
        for key in set(self.pages) | set(self.page_digests):
            digest = self.page_digests.get(key)
            if digest is None:
                digest = page_digest(self.pages[key])
            out[key] = digest
        return out

    def serialize(self, format=FORMAT_VERSION):
        """Encode the image as a TLV byte stream.

        ``format=2`` (the default) writes the whole-blob layout with page
        payloads inline; ``format=3`` writes the manifest layout with one
        digest reference per page — the caller (the storage layer) owns
        placing the payloads in the content-addressed store.
        """
        if format == FORMAT_VERSION:
            writer = RecordWriter(kind=STREAM_KIND_CHECKPOINT)
            writer.write(TAG_METADATA, self._metadata_json())
            for (vpid, region_start, page_index), content in sorted(
                    self.pages.items()):
                header = _PAGE_HEADER.pack(vpid, region_start, page_index)
                writer.write(TAG_PAGE, header + content)
            return writer.getvalue()
        if format != FORMAT_VERSION_MANIFEST:
            raise CheckpointError("unknown image format %r" % (format,))
        manifest = self.manifest()
        writer = RecordWriter(kind=STREAM_KIND_CHECKPOINT,
                              version=FORMAT_VERSION_MANIFEST)
        writer.write(TAG_METADATA, self._metadata_json())
        for (vpid, region_start, page_index), digest in sorted(
                manifest.items()):
            header = _PAGE_HEADER.pack(vpid, region_start, page_index)
            writer.write(TAG_PAGE_REF, header + digest)
        return writer.getvalue()

    @classmethod
    def deserialize(cls, data):
        meta, manifest, pages = _decode(data)
        meta = json.loads(str(meta, "utf-8"))
        image = cls(
            checkpoint_id=meta["checkpoint_id"],
            timestamp_us=meta["timestamp_us"],
            container_name=meta["container_name"],
            parent_id=meta["parent_id"],
            full=meta["full"],
            fs_txn=meta["fs_txn"],
        )
        image.processes = meta["processes"]
        image.regions = {int(vpid): regs for vpid, regs in meta["regions"].items()}
        locations = meta["page_locations"]
        image.page_locations = dict(zip(_page_keys_from_strs(list(locations)),
                                        locations.values()))
        image.relinked_files = [tuple(item) for item in meta["relinked_files"]]
        if manifest:
            image.page_digests = pages
        else:
            image.pages = pages
        return image

    def __repr__(self):
        return (
            "CheckpointImage(id=%d, %s, processes=%d, pages=%d, parent=%r)"
            % (
                self.checkpoint_id,
                "full" if self.full else "incremental",
                len(self.processes),
                len(self.pages),
                self.parent_id,
            )
        )
