"""Checkpoint image storage.

A simulated disk for checkpoint images.  It charges the cost model for
writes and reads, tracks compressed and uncompressed sizes (Figure 4 shows
both), and models the page cache: a *cached* read costs a memory copy, an
*uncached* read costs seeks plus sequential transfer — the distinction
behind Figure 7's two revive series ("reviving using checkpoint files that
have been cached due to recent file access more commonly occurs when users
revive a session at a time relatively close to the current time").

Two on-disk layouts coexist:

* **Whole blob** (``page_store=False``, serial format v2) — each image is
  one monolithic zlib frame; identical pages shared across the chain are
  written and accounted once per checkpoint.
* **Content-addressed page store** (``page_store=True``, the default,
  serial format v3) — page payloads are stored once in a refcounted CAS
  keyed by SHA-1 digest and shared across every image that saved an
  identical page; images serialize as metadata plus a digest manifest.
  ``store`` dedups against live pages, ``delete`` decrements refcounts and
  reclaims only orphaned pages, and :meth:`compact` rewrites fragmented
  page extents after pruning.  v2 blobs injected into a CAS store remain
  readable (their pages are inline, so their manifest is empty).

Fleet mode: the CAS proper lives in a :class:`ShardedPageCAS` that any
number of ``CheckpointStorage`` instances — one per recording session —
may share (``CheckpointStorage(cas=shared, owner="session-name")``).
References are counted **per owner**: each owner's count is the number of
(image, key) references across that owner's live manifests, and a page is
physically reclaimed only when *every* owner's count is zero.  One session
crashing and recovering rebuilds only its own counts, so recovery can
never reclaim pages another session still references.

Sharded physical layout, global logical state: the CAS splits its
*physical* layout — extents and the append path — into K consistent-hash
shards keyed by page digest (``crc32(digest) % K``), while every
*logical* map (payloads, sizes, refcounts, owner refcounts) stays global
and shard-layout-agnostic.  v3 manifests name digests, never extents, so
the same store reopened with a different shard count (:meth:`reshard`)
serves identical reads and identical accounting.

Group-commit writeback: ``commit_page`` no longer appends to an extent
inline — it *enqueues* the append on the digest's shard.  A later
``flush_shard`` drains the shard's queue as one batched group commit.
Two writeback modes share that machinery:

* **sync** (the default, solo sessions): ``store`` force-flushes the
  touched shards before the manifest commit, so every durability point
  is exactly where it was before sharding — and the two flush failpoints
  (``storage.shard.flush``, ``storage.shard.group_commit``) fire on the
  session's own write path.
* **async** (``async_writeback=True``, the fleet): ``store`` enqueues
  and returns — the session never waits on storage.  The service flushes
  shards on its own clock (size-triggered group commits, a rollup-cadence
  sweep, backlog backpressure), and :meth:`drain` is the only barrier
  (delete/GC/compact/recover, fleet shutdown).  A queued page is already
  *logically* committed — readable, dedupable, refcountable — it just
  has no extent yet; crash recovery treats queued pages nobody references
  as lost in-flight writes and drops them.

Accounting under sharing: each storage's ``total_*_bytes`` stay **logical
to the owner** — manifests plus every unique page the owner references,
dedup'd against the owner's *own* pages only.  The shared CAS tracks the
**physical** totals (each page charged once fleet-wide) plus cross-owner
dedup counters; the gap between the sum of owner-logical totals and the
physical totals is exactly the fleet's cross-session dedup win.  Charging
the virtual clock also uses owner visibility, so what another session has
stored never changes this session's simulated timings — the property the
fleet's determinism contract (interleaved ≡ solo) rests on.  With a
private CAS (the default) there is a single owner, owner visibility equals
global visibility, and the accounting is bit-identical to the pre-fleet
behavior.

Host-side, CAS payloads are kept raw (uncompressed) whatever the
*accounting* mode: a read hands back the stored bytes without copying.
The per-page ``zlib.compress`` in ``_store_manifest`` runs only to size
a new page for the compressed accounting; its output is discarded.
Manifest and blob frames are the one thing kept zlib-compressed.

Two reads serve revive: :meth:`CheckpointStorage.load` decodes a whole
image, and :meth:`CheckpointStorage.load_pages` returns only the pages
one image holds (the chain read: metadata CRC-checked but not decoded,
page references parsed in bulk).  Both charge the clock, ``read_count``
and the cache state identically.

Durability: each stored manifest/blob carries a fixed-size trailer —
magic, uncompressed length, compressed length, CRC-32 of the compressed
bytes — so a write torn by a crash (the ``storage.store.pre_commit``
failpoint) is detected on read instead of silently misdecoding.  The CAS
write path adds two more sites: ``storage.cas.page_append`` (crash leaves
a torn uncommitted page, with earlier pages committed but unreferenced)
and ``storage.cas.manifest_commit`` (crash strands freshly committed
pages as orphans).  :meth:`recover` is a full fsck: it drops torn frames,
discards torn/corrupt CAS pages, drops manifests with dangling digests,
rebuilds this owner's refcounts from the surviving manifests, reclaims
globally orphaned pages, repairs the chain with
:func:`repro.checkpoint.verify.verify_chain` to a fixpoint, and recomputes
the totals.  ``store`` stays transactional for *transient* faults: an
:class:`InjectedFault` rolls back every page committed by that call, so a
failed store leaves the totals untouched (and never double-counts on
retry).
"""

import hashlib
import json
import struct
import zlib

from repro.common.clock import VirtualClock
from repro.common.costs import DEFAULT_COSTS
from repro.common.errors import CheckpointError, SnapshotError
from repro.common.faults import InjectedCrash, InjectedFault, resolve_faults
from repro.common.telemetry import resolve_telemetry
from repro.checkpoint.image import (
    CheckpointImage,
    FORMAT_VERSION_MANIFEST,
    page_digest,
    page_map,
)

#: Blob trailer: magic, uncompressed length, compressed length, CRC-32 of
#: the compressed payload.  Written after the payload, so a torn write is
#: missing (or truncating) it — exactly how it is detected.
_TRAILER = struct.Struct("<4sIII")
TRAILER_MAGIC = b"DJCK"

FP_STORE_PRE_COMMIT = "storage.store.pre_commit"
FP_CAS_PAGE_APPEND = "storage.cas.page_append"
FP_CAS_MANIFEST_COMMIT = "storage.cas.manifest_commit"
FP_SHARD_FLUSH = "storage.shard.flush"
FP_SHARD_GROUP_COMMIT = "storage.shard.group_commit"
FP_BRANCH_REFS = "revive.branch.refs"
FP_THIN_TOMBSTONE = "thin.tombstone"
FP_THIN_DROP_REFS = "thin.drop_refs"

#: TLV stream kind for serialized THINNED tombstone records (the golden
#: fixture format): one ``REC_THIN_TOMBSTONE`` per tombstone plus an
#: optional embedded replay-log segment that re-derives them.
STREAM_KIND_THIN = 0x7417
REC_THIN_TOMBSTONE = 0x01
REC_THIN_LOG = 0x02

#: CAS pages are appended to fixed-size extents (compressed bytes).  A
#: reclaimed page leaves dead bytes in its extent;
#: :meth:`ShardedPageCAS.compact` rewrites extents whose dead fraction
#: crosses the threshold.
EXTENT_TARGET_BYTES = 256 * 1024
DEFAULT_DEAD_FRACTION = 0.25

#: Solo sessions keep one shard: the physical layout (extent ids, append
#: order) is then byte-for-byte what the unsharded store produced.
DEFAULT_SHARDS = 1

#: Async group commit: a shard whose queue holds at least this many bytes
#: is flushed by the service's writeback tick.
GROUP_COMMIT_BYTES = 64 * 1024

DEFAULT_OWNER = "local"


class _Extent:
    """One append-only run of compressed page payloads."""

    __slots__ = ("live", "dead", "digests", "shard")

    def __init__(self, shard=0):
        self.live = 0
        self.dead = 0
        self.digests = set()
        self.shard = shard


class _Shard:
    """One shard's physical state: its append queue and extent head.

    The queue is a list (append order) shadowed by a set: reclaiming or
    rolling back a queued page just drops it from the set, and the next
    flush skips the stale list entry — cancellation is O(1) and a
    cancelled append never touches an extent.
    """

    __slots__ = ("queue", "queued", "queued_bytes", "current_extent",
                 "flushes", "flush_pages", "flush_bytes", "flush_us_total",
                 "max_batch_pages", "backlog_highwater_bytes")

    def __init__(self):
        self.queue = []
        self.queued = set()
        self.queued_bytes = 0
        self.current_extent = None
        self.flushes = 0
        self.flush_pages = 0
        self.flush_bytes = 0
        self.flush_us_total = 0
        self.max_batch_pages = 0
        self.backlog_highwater_bytes = 0


class ShardedPageCAS:
    """A sharded content-addressed page store shareable across storages.

    Holds the page payloads, per-digest sizes and accounting modes,
    per-owner and global refcounts, the sharded append-only extents, and
    the *physical* byte totals (each committed page charged exactly once
    no matter how many owners reference it).  A private
    :class:`CheckpointStorage` builds its own instance; a fleet builds one
    and hands it to every member storage.

    The logical maps are global; only the extent layout and the append
    queues are per-shard.  ``async_writeback=True`` makes ``store``
    callers leave pages queued for a later service-driven group commit
    (the fleet mode); the default flushes at every manifest commit.
    """

    def __init__(self, shards=DEFAULT_SHARDS, async_writeback=False):
        if shards < 1:
            raise ValueError("shard count must be >= 1, got %r" % (shards,))
        self.pages = {}  # digest -> page payload bytes
        self.sizes = {}  # digest -> (raw, compressed) page bytes
        self.mode = {}  # digest -> accounted mode at first store
        self.refs = {}  # digest -> global (image, key) reference count
        self.owner_refs = {}  # owner -> {digest -> (image, key) refs}
        self.extent_of = {}  # digest -> extent id (absent while queued)
        self.extents = {}  # extent id -> _Extent (ids unique CAS-wide)
        self._extent_seq = 0
        self.shard_count = shards
        self.shards = [_Shard() for _ in range(shards)]
        self.async_writeback = async_writeback
        # Physical totals: each unique committed page charged once.
        self.total_uncompressed_bytes = 0
        self.total_compressed_bytes = 0
        # Cross-owner dedup: pages an owner charged for (first time *it*
        # saw them) that were already committed by another owner.
        self.cross_pages_deduped = 0
        self.cross_dedup_bytes_saved = 0
        self.orphans_reclaimed = 0
        self.compaction_runs = 0
        self.compaction_bytes_reclaimed = 0

    def shard_of(self, digest):
        """The consistent-hash home shard of a digest."""
        return zlib.crc32(digest) % self.shard_count

    # ------------------------------------------------------------------ #
    # Owner bookkeeping

    def owner_refs_for(self, owner):
        refs = self.owner_refs.get(owner)
        if refs is None:
            refs = self.owner_refs[owner] = {}
        return refs

    def owners(self):
        return sorted(self.owner_refs)

    # ------------------------------------------------------------------ #
    # Write path

    def commit_page(self, digest, payload, raw_len, comp_len, mode):
        """Logically commit one page (no references yet) and *enqueue*
        its physical append on the digest's home shard.  The payload is
        immediately readable and dedupable; the extent write happens at
        the next group commit of that shard (:meth:`flush_shard`)."""
        self.pages[digest] = payload
        self.sizes[digest] = (raw_len, comp_len)
        self.mode[digest] = mode
        self.refs[digest] = 0  # referenced at manifest commit
        shard = self.shards[self.shard_of(digest)]
        shard.queue.append(digest)
        shard.queued.add(digest)
        shard.queued_bytes += comp_len
        if shard.queued_bytes > shard.backlog_highwater_bytes:
            shard.backlog_highwater_bytes = shard.queued_bytes
        self.total_uncompressed_bytes += raw_len
        self.total_compressed_bytes += comp_len

    def _unqueue(self, digest, comp_len):
        """Cancel a pending queued append (the page is going away before
        its group commit, so the write simply never happens)."""
        shard = self.shards[self.shard_of(digest)]
        if digest in shard.queued:
            shard.queued.discard(digest)
            shard.queued_bytes -= comp_len
            return True
        return False

    def rollback_page(self, digest):
        """Undo an uncommitted page append (transient-fault rollback):
        the write never happened, so no dead bytes are left behind."""
        raw_len, comp_len = self.sizes.pop(digest)
        self.mode.pop(digest, None)
        self.refs.pop(digest, None)
        self.pages.pop(digest, None)
        eid = self.extent_of.pop(digest, None)
        if eid is not None:
            extent = self.extents[eid]
            extent.live -= comp_len
            extent.digests.discard(digest)
        else:
            self._unqueue(digest, comp_len)
        self.total_uncompressed_bytes -= raw_len
        self.total_compressed_bytes -= comp_len

    def add_ref(self, owner, digest):
        """Add one (image, key) reference for ``owner``; returns True when
        this is the owner's *first* reference to the digest."""
        own = self.owner_refs_for(owner)
        previous = own.get(digest, 0)
        own[digest] = previous + 1
        self.refs[digest] = self.refs.get(digest, 0) + 1
        return previous == 0

    def unref(self, owner, digest):
        """Drop one of ``owner``'s references.  Returns
        ``(owner_dropped, reclaimed)``: whether the owner's last reference
        went away, and whether the page was physically reclaimed (every
        owner at zero)."""
        own = self.owner_refs.get(owner)
        count = own.get(digest) if own is not None else None
        if count is None:
            return False, False
        if count > 1:
            own[digest] = count - 1
            self.refs[digest] -= 1
            return False, False
        del own[digest]
        total = self.refs.get(digest, 0) - 1
        if total > 0:
            self.refs[digest] = total
            return True, False
        self.reclaim_page(digest)
        return True, True

    def reclaim_page(self, digest):
        """Free a committed page regardless of references (fsck path).
        Its extent bytes turn dead."""
        raw_len, comp_len = self.sizes.pop(digest)
        self.mode.pop(digest, None)
        self.refs.pop(digest, None)
        self.pages.pop(digest, None)
        for own in self.owner_refs.values():
            own.pop(digest, None)
        eid = self.extent_of.pop(digest, None)
        if eid is not None:
            extent = self.extents.get(eid)
            if extent is not None:
                extent.live -= comp_len
                extent.dead += comp_len
                extent.digests.discard(digest)
        else:
            # Still queued: cancel the append — it never reaches an
            # extent, so no dead bytes either.
            self._unqueue(digest, comp_len)
        self.total_uncompressed_bytes -= raw_len
        self.total_compressed_bytes -= comp_len

    def accounted_len(self, digest, fallback_mode):
        raw_len, comp_len = self.sizes[digest]
        mode = self.mode.get(digest, fallback_mode)
        return comp_len if mode else raw_len

    # ------------------------------------------------------------------ #
    # Recovery support

    def drop_uncommitted(self):
        """Discard payloads that are present but never committed (torn
        mid-append); returns how many were dropped."""
        dropped = 0
        for digest in [d for d in self.pages if d not in self.sizes]:
            del self.pages[digest]
            self.refs.pop(digest, None)
            for own in self.owner_refs.values():
                own.pop(digest, None)
            dropped += 1
        return dropped

    def rebuild_owner_refs(self, owner, manifests):
        """Recompute ``owner``'s refcounts from its surviving manifests
        and reclaim pages no owner references any more.

        ``manifests`` is an iterable of digest tuples (one per surviving
        image).  Other owners' counts are never touched — the contract
        that makes one session's crash recovery safe for the rest of the
        fleet.  Returns the number of orphaned pages reclaimed.
        """
        own = {}
        for digests in manifests:
            for digest in digests:
                own[digest] = own.get(digest, 0) + 1
        self.owner_refs[owner] = own
        # Global counts are the sum over owners (mutate the dict in place:
        # storages alias it).
        totals = {}
        for refs in self.owner_refs.values():
            for digest, count in refs.items():
                totals[digest] = totals.get(digest, 0) + count
        self.refs.clear()
        self.refs.update(totals)
        reclaimed = self.drop_uncommitted()
        for digest in [d for d in self.pages
                       if self.refs.get(d, 0) <= 0]:
            self.reclaim_page(digest)
            reclaimed += 1
        if reclaimed:
            self.orphans_reclaimed += reclaimed
        return reclaimed

    def owner_logical_totals(self, owner):
        """(raw, compressed) bytes of the unique pages ``owner``
        references — the owner-logical page accounting."""
        raw = comp = 0
        for digest in self.owner_refs.get(owner, ()):
            raw_len, comp_len = self.sizes[digest]
            raw += raw_len
            comp += comp_len
        return raw, comp

    # ------------------------------------------------------------------ #
    # Group-commit writeback

    def flush_shard(self, sid, faults=None, costs=None, clock=None):
        """Drain one shard's append queue as a single group commit.

        Appends every still-pending queued page to the shard's extents in
        enqueue order and returns a batch report (None when the queue was
        empty).  ``faults`` arms the two flush failpoints — the *sync*
        store path passes its own plan so a solo crash sweep exercises
        them; the fleet's service-driven flushes leave them unarmed.
        ``costs`` prices the batch as one sequential write (reported as
        ``flush_us``); ``clock`` (rarely used — flushes model background
        I/O that overlaps execution) would charge it.

        Crash semantics: a crash at ``storage.shard.flush`` leaves the
        queue intact — the batch never reached disk; a crash at
        ``storage.shard.group_commit`` leaves the batch appended but the
        commit record torn, so fsck decides by refcount (an interrupted
        store has not referenced its pages yet and they are reclaimed).
        """
        shard = self.shards[sid]
        if not shard.queued:
            shard.queue = []  # drop stale cancelled entries
            return None
        if faults is not None:
            faults.check(FP_SHARD_FLUSH)
        batch = [digest for digest in shard.queue
                 if digest in shard.queued and digest in self.sizes
                 and digest not in self.extent_of]
        shard.queue = []
        shard.queued.clear()
        shard.queued_bytes = 0
        bytes_flushed = 0
        for digest in batch:
            comp_len = self.sizes[digest][1]
            self._extent_append(digest, comp_len, sid)
            bytes_flushed += comp_len
        if faults is not None:
            faults.check(FP_SHARD_GROUP_COMMIT)
        flush_us = 0
        if costs is not None and bytes_flushed:
            flush_us = int(costs.disk_write_us(bytes_flushed,
                                               sequential=True))
            if clock is not None:
                clock.advance_us(flush_us)
        shard.flushes += 1
        shard.flush_pages += len(batch)
        shard.flush_bytes += bytes_flushed
        shard.flush_us_total += flush_us
        if len(batch) > shard.max_batch_pages:
            shard.max_batch_pages = len(batch)
        return {"shard": sid, "pages": len(batch),
                "bytes": bytes_flushed, "flush_us": flush_us}

    def flush_all(self, faults=None, costs=None, clock=None):
        """Group-commit every shard with a non-empty queue; returns the
        list of batch reports."""
        reports = []
        for sid in range(self.shard_count):
            report = self.flush_shard(sid, faults=faults, costs=costs,
                                      clock=clock)
            if report is not None:
                reports.append(report)
        return reports

    def drain(self, costs=None):
        """The writeback barrier: flush every queued append and return
        aggregate totals.  Delete/GC/compact/recover and fleet shutdown
        call this — it is the only place anything waits on storage."""
        reports = self.flush_all(costs=costs)
        return {
            "batches": len(reports),
            "pages": sum(r["pages"] for r in reports),
            "bytes": sum(r["bytes"] for r in reports),
        }

    def backlog_pages(self):
        """Queued page appends not yet group-committed, CAS-wide."""
        return sum(len(shard.queued) for shard in self.shards)

    def backlog_bytes(self):
        """Compressed bytes sitting in append queues, CAS-wide."""
        return sum(shard.queued_bytes for shard in self.shards)

    def unflushed_digests(self):
        """Digests committed logically but not yet in any extent."""
        pending = set()
        for shard in self.shards:
            pending.update(shard.queued)
        return pending

    def drop_queued_orphans(self):
        """Fsck: drop queued-but-unflushed pages nobody references — a
        crash lost those in-flight writes.  Queued pages a (surviving)
        owner's manifest references are kept queued: in async mode the
        service outlives a member crash and its queues with it.  Returns
        how many pages were dropped."""
        dropped = 0
        for shard in self.shards:
            for digest in sorted(shard.queued):
                if self.refs.get(digest, 0) <= 0:
                    self.reclaim_page(digest)
                    dropped += 1
        return dropped

    def reshard(self, shards):
        """Rebuild the physical layout under a new shard count.

        Drains the queues, then re-appends every committed page to its
        new home shard in digest order.  The logical maps — and with
        them every manifest, refcount, and accounting figure — are
        untouched: v3 manifests name digests, not extents, so a store
        reopened with a different K serves identical reads.  (The
        rewrite squeezes out dead bytes as a side effect, like a full
        compaction.)
        """
        if shards < 1:
            raise ValueError("shard count must be >= 1, got %r" % (shards,))
        self.flush_all()
        self.shard_count = shards
        self.shards = [_Shard() for _ in range(shards)]
        self.extents = {}
        self.extent_of = {}
        self._extent_seq = 0
        for digest in sorted(self.sizes):
            self._extent_append(digest, self.sizes[digest][1])

    def shard_stats(self):
        """Per-shard physical and writeback figures (JSON-ready)."""
        per_extents = {}
        per_live = {}
        per_dead = {}
        for extent in self.extents.values():
            per_extents[extent.shard] = per_extents.get(extent.shard, 0) + 1
            per_live[extent.shard] = per_live.get(extent.shard, 0) \
                + extent.live
            per_dead[extent.shard] = per_dead.get(extent.shard, 0) \
                + extent.dead
        rows = []
        for sid, shard in enumerate(self.shards):
            rows.append({
                "shard": sid,
                "extents": per_extents.get(sid, 0),
                "live_bytes": per_live.get(sid, 0),
                "dead_bytes": per_dead.get(sid, 0),
                "queued_pages": len(shard.queued),
                "queued_bytes": shard.queued_bytes,
                "flushes": shard.flushes,
                "flush_pages": shard.flush_pages,
                "flush_bytes": shard.flush_bytes,
                "flush_us_total": shard.flush_us_total,
                "max_batch_pages": shard.max_batch_pages,
                "backlog_highwater_bytes": shard.backlog_highwater_bytes,
            })
        return rows

    # ------------------------------------------------------------------ #
    # Extents and compaction

    def _extent_append(self, digest, comp_len, sid=None):
        if sid is None:
            sid = self.shard_of(digest)
        shard = self.shards[sid]
        eid = shard.current_extent
        extent = self.extents.get(eid) if eid is not None else None
        if extent is None or extent.live + extent.dead >= EXTENT_TARGET_BYTES:
            self._extent_seq += 1
            eid = self._extent_seq
            extent = _Extent(shard=sid)
            self.extents[eid] = extent
            shard.current_extent = eid
        extent.live += comp_len
        extent.digests.add(digest)
        self.extent_of[digest] = eid

    def fragmentation(self):
        """Live/dead byte split across page extents (plus the writeback
        backlog still waiting on a group commit)."""
        live = sum(extent.live for extent in self.extents.values())
        dead = sum(extent.dead for extent in self.extents.values())
        return {"extents": len(self.extents),
                "live_bytes": live, "dead_bytes": dead,
                "queued_bytes": self.backlog_bytes()}

    def compact(self, dead_fraction=DEFAULT_DEAD_FRACTION, clock=None,
                costs=None):
        """Reclaim orphaned pages and rewrite fragmented extents.

        Begins with a :meth:`drain` barrier — compaction must never
        rewrite an extent while appends for its shard are still in
        flight, so every queued page is group-committed (or has been
        cancelled by an earlier reclaim) before any extent moves.  Then
        any page with zero references fleet-wide (crash leftovers, or
        entries whose last manifest was pruned out from under them) is
        reclaimed, and every extent whose dead fraction is at least
        ``dead_fraction`` has its live pages rewritten into its shard's
        current append head and its dead bytes reclaimed.  Pass ``clock``
        and ``costs`` to charge the sequential read + write of the moved
        live bytes — a private storage charges its session clock, a fleet
        charges the service clock.  Returns a report dict.
        """
        report = {
            "orphans_reclaimed": 0,
            "extents_rewritten": 0,
            "pages_moved": 0,
            "bytes_reclaimed": 0,
        }
        drained = self.drain(costs=costs)
        report["drained_pages"] = drained["pages"]
        report["drained_bytes"] = drained["bytes"]
        report["orphans_reclaimed"] += self.drop_uncommitted()
        for digest in [d for d, refs in self.refs.items() if refs <= 0]:
            self.reclaim_page(digest)
            report["orphans_reclaimed"] += 1
        if report["orphans_reclaimed"]:
            self.orphans_reclaimed += report["orphans_reclaimed"]
        for eid in sorted(self.extents):
            extent = self.extents.get(eid)
            if extent is None:
                continue
            shard = self.shards[extent.shard] \
                if extent.shard < self.shard_count else None
            total = extent.live + extent.dead
            if total == 0:
                if shard is None or shard.current_extent != eid:
                    del self.extents[eid]
                continue
            if extent.dead == 0 or extent.dead / total < dead_fraction:
                continue
            if shard is not None and shard.current_extent == eid:
                # Never rewrite an extent into itself: retire the append
                # head and let the move open a fresh one.
                shard.current_extent = None
            if clock is not None and costs is not None and extent.live:
                clock.advance_us(
                    costs.disk_read_us(extent.live, sequential=True))
                clock.advance_us(
                    costs.disk_write_us(extent.live, sequential=True))
            for digest in sorted(extent.digests):
                self._extent_append(digest, self.sizes[digest][1])
                report["pages_moved"] += 1
            del self.extents[eid]
            report["extents_rewritten"] += 1
            report["bytes_reclaimed"] += extent.dead
        self.compaction_runs += 1
        self.compaction_bytes_reclaimed += report["bytes_reclaimed"]
        return report

    # ------------------------------------------------------------------ #

    def entries(self):
        """``{digest: {"refs", "uncompressed", "compressed"}}`` for every
        committed page (global refcounts)."""
        return {
            digest: {
                "refs": self.refs.get(digest, 0),
                "uncompressed": raw_len,
                "compressed": comp_len,
            }
            for digest, (raw_len, comp_len) in self.sizes.items()
        }

    def refcount_consistent(self):
        """The refcount fsck: every live page's global count must be
        exactly the sum of the per-owner counts (no owner bucket can
        drift from the global ledger, no ref can exist ownerless)."""
        totals = {}
        for refs in self.owner_refs.values():
            for digest, count in refs.items():
                totals[digest] = totals.get(digest, 0) + count
        live = {digest: count
                for digest, count in self.refs.items() if count}
        return totals == live

    def stats(self):
        """Fleet-level CAS facts (physical bytes + cross-owner dedup +
        per-shard writeback figures)."""
        return {
            "cas_pages": len(self.sizes),
            "refcount_consistent": self.refcount_consistent(),
            "physical_uncompressed_bytes": self.total_uncompressed_bytes,
            "physical_compressed_bytes": self.total_compressed_bytes,
            "cross_pages_deduped": self.cross_pages_deduped,
            "cross_dedup_bytes_saved": self.cross_dedup_bytes_saved,
            "orphans_reclaimed": self.orphans_reclaimed,
            "owners": self.owners(),
            "shard_count": self.shard_count,
            "writeback": {
                "async": self.async_writeback,
                "backlog_pages": self.backlog_pages(),
                "backlog_bytes": self.backlog_bytes(),
                "backlog_highwater_bytes": max(
                    (s.backlog_highwater_bytes for s in self.shards),
                    default=0),
                "flush_batches": sum(s.flushes for s in self.shards),
                "flush_pages": sum(s.flush_pages for s in self.shards),
                "flush_bytes": sum(s.flush_bytes for s in self.shards),
            },
            "shards": self.shard_stats(),
        }


#: Backwards-compatible name: the unsharded store is the K=1 special
#: case of the sharded one (identical extent ids and append order).
PageCAS = ShardedPageCAS


class StoreReceipt:
    """What one ``store`` call actually wrote (as accounted)."""

    __slots__ = ("image_id", "accounted_bytes", "pages_stored",
                 "pages_deduped", "dedup_bytes_saved")

    def __init__(self, image_id, accounted_bytes, pages_stored=0,
                 pages_deduped=0, dedup_bytes_saved=0):
        self.image_id = image_id
        self.accounted_bytes = accounted_bytes
        self.pages_stored = pages_stored
        self.pages_deduped = pages_deduped
        self.dedup_bytes_saved = dedup_bytes_saved


class CheckpointStorage:
    """Stores serialized checkpoint images on a simulated disk.

    ``cas`` (optional) injects a shared :class:`PageCAS`; ``owner`` names
    this storage's reference-count bucket inside it.  The default is a
    private CAS with a single owner — the classic one-session layout.
    """

    def __init__(self, clock=None, costs=DEFAULT_COSTS, compress=False,
                 faults=None, telemetry=None, page_store=True,
                 cas=None, owner=DEFAULT_OWNER, shards=DEFAULT_SHARDS):
        self.clock = clock if clock is not None else VirtualClock()
        self.costs = costs
        #: Whether the *accounted* storage format is compressed (the paper
        #: reports both "Process" and "Process (Compressed)" growth rates).
        self.compress = compress
        #: Content-addressed page store (v3 manifests) vs whole blobs (v2).
        self.page_store = page_store
        self.faults = resolve_faults(faults)
        #: ``shards`` sizes a *private* CAS; an injected shared ``cas``
        #: arrives already sharded by its builder (the fleet).
        self.cas = cas if cas is not None else ShardedPageCAS(shards=shards)
        self.owner = owner
        self.cas.owner_refs_for(owner)  # register the owner eagerly
        self._blobs = {}  # image id -> framed blob (zlib payload + trailer)
        self._sizes = {}  # image id -> logical (uncompressed, compressed)
        self._meta_sizes = {}  # image id -> metadata record bytes
        self._cached = set()
        # Manifest bookkeeping (one entry per stored image).
        self._manifests = {}  # image id -> tuple of page digests (key order)
        self._manifest_sizes = {}  # image id -> (raw, compressed) blob bytes
        self._stored_mode = {}  # image id -> accounted mode at store time
        # Base-manifest pins: a revived branch's claim on the page digests
        # of its *source* checkpoint chain, held in the shared CAS under
        # this owner so the parent (or a sibling) pruning the source never
        # reclaims pages the branch still demand-pages.
        self._base_manifests = {}  # source image id -> tuple of digests
        # THINNED tombstones: image id -> fingerprint record of a
        # checkpoint whose bytes were dropped but whose instant is still
        # re-derivable by replaying forward from a surviving anchor.
        self._tombstones = {}
        # Owner-logical totals: manifest/blob frames, plus each unique CAS
        # page this owner references, charged once while referenced.
        self._frame_raw_total = 0
        self._frame_comp_total = 0
        self._page_raw_total = 0
        self._page_comp_total = 0
        self.write_count = 0
        self.read_count = 0
        self.pages_deduped = 0
        self.dedup_bytes_saved = 0
        metrics = resolve_telemetry(telemetry)
        self._m_pages_deduped = metrics.counter("storage.pages_deduped")
        self._m_dedup_saved = metrics.counter("storage.dedup_bytes_saved")
        self._m_orphans = metrics.counter("storage.cas_orphans_reclaimed")
        self._m_flush_batches = metrics.counter("storage.writeback_flushes")
        self._m_flush_pages = metrics.counter(
            "storage.writeback_flush_pages")
        self._m_flush_bytes = metrics.counter(
            "storage.writeback_flush_bytes")
        self._orphans_attributed = 0

    def bind_faults(self, faults):
        self.faults = resolve_faults(faults)

    # -- accounting views ---------------------------------------------- #

    @property
    def total_uncompressed_bytes(self):
        return self._frame_raw_total + self._page_raw_total

    @property
    def total_compressed_bytes(self):
        return self._frame_comp_total + self._page_comp_total

    @property
    def cas_orphans_reclaimed(self):
        return self.cas.orphans_reclaimed

    @property
    def compaction_runs(self):
        return self.cas.compaction_runs

    @property
    def compaction_bytes_reclaimed(self):
        return self.cas.compaction_bytes_reclaimed

    # -- shared-CAS internals, aliased for tests and tooling ------------ #

    @property
    def _cas(self):
        return self.cas.pages

    @property
    def _cas_sizes(self):
        return self.cas.sizes

    @property
    def _cas_refs(self):
        return self.cas.refs

    @property
    def _cas_mode(self):
        return self.cas.mode

    @property
    def _cas_extent(self):
        return self.cas.extent_of

    @property
    def _extents(self):
        return self.cas.extents

    @property
    def _own_refs(self):
        return self.cas.owner_refs_for(self.owner)

    # ------------------------------------------------------------------ #
    # Write path

    def store(self, image, charge_time=True):
        """Serialize and write an image; returns a :class:`StoreReceipt`
        whose ``accounted_bytes`` is the bytes actually written as
        accounted (compressed when compression is enabled, with pages
        already referenced by this owner deduplicated away).

        Transactional for transient faults: an :class:`InjectedFault`
        rolls back every page this call committed, so a failed store
        leaves the totals consistent.  An injected *crash* instead leaves
        the on-disk state a real mid-write power cut would — a torn
        frame, a torn page, or committed-but-unreferenced pages —
        before propagating.
        """
        if image.checkpoint_id in self._blobs:
            raise CheckpointError(
                "checkpoint %d already stored" % image.checkpoint_id
            )
        if not self.page_store:
            return self._store_blob(image, charge_time)
        return self._store_manifest(image, charge_time)

    def _frame(self, raw):
        blob = zlib.compress(raw, level=1)
        return blob, blob + _TRAILER.pack(
            TRAILER_MAGIC, len(raw), len(blob), zlib.crc32(blob))

    def _crash_torn_frame(self, image_id, frame):
        """The host died mid-write: half the frame made it to disk,
        trailer missing.  No cache entry — the machine is gone."""
        torn = frame[:max(1, len(frame) // 2)]
        self._blobs[image_id] = torn
        self._sizes[image_id] = (0, len(torn))
        self._meta_sizes[image_id] = 0
        self._frame_comp_total += len(torn)

    def _store_blob(self, image, charge_time):
        """Legacy whole-blob write path (serial format v2)."""
        raw = image.serialize()
        blob, frame = self._frame(raw)
        mode = self.compress
        written = len(blob) if mode else len(raw)
        image_id = image.checkpoint_id
        try:
            # A transient fault (InjectedFault/IOError) raises here,
            # before any mutation: the store simply did not happen.
            self.faults.check(FP_STORE_PRE_COMMIT)
        except InjectedCrash:
            self._crash_torn_frame(image_id, frame)
            raise
        if charge_time:
            if mode:
                self.clock.advance_us(self.costs.compress_us(len(raw)))
            self.clock.advance_us(
                self.costs.disk_write_us(written, sequential=True)
            )
        self._blobs[image_id] = frame
        self._sizes[image_id] = (len(raw), len(blob))
        self._meta_sizes[image_id] = image.metadata_bytes
        self._manifests[image_id] = ()
        self._manifest_sizes[image_id] = (len(raw), len(blob))
        self._stored_mode[image_id] = mode
        self._frame_raw_total += len(raw)
        self._frame_comp_total += len(blob)
        self.write_count += 1
        # A freshly written image sits in the page cache.
        self._cached.add(image_id)
        return StoreReceipt(image_id=image_id, accounted_bytes=written,
                            pages_stored=len(image.pages))

    def _store_manifest(self, image, charge_time):
        """CAS write path: append new pages, then commit the manifest.

        Dedup for *charging* (clock time, receipt, owner-logical totals)
        is decided against this owner's own references, so the simulated
        timings of a session never depend on what other fleet members have
        stored.  Physical appends are decided against the whole CAS —
        a page another owner committed is a cross-dedup hit: charged to
        this owner, written by nobody.
        """
        cas = self.cas
        image_id = image.checkpoint_id
        mode = self.compress
        manifest = image.manifest()
        contents = {}
        for key in manifest:
            digest = manifest[key]
            content = image.pages.get(key)
            if content is None:
                content = cas.pages.get(digest)
                if content is None or digest not in cas.refs:
                    raise CheckpointError(
                        "page %r of checkpoint %d has no payload and is "
                        "not in the page store" % (key, image_id))
            contents[digest] = bytes(content)
        # Serialize the manifest from the digests just computed (no
        # second hashing pass inside serialize).
        image.page_digests = dict(manifest)
        raw = image.serialize(format=FORMAT_VERSION_MANIFEST)
        blob, frame = self._frame(raw)
        # Dedup analysis, before any mutation.  ``ordered`` has one digest
        # per page key; a digest this owner already references (or one
        # repeated within this image) is a charging dedup hit.
        ordered = tuple(manifest[key] for key in sorted(manifest))
        own_refs = self._own_refs
        sizes = {}
        for digest in set(ordered):
            if digest in cas.sizes:
                sizes[digest] = cas.sizes[digest]
            else:
                content = contents[digest]
                sizes[digest] = (
                    len(content), len(zlib.compress(content, 1)))

        def accounted(digest):
            raw_len, comp_len = sizes[digest]
            return comp_len if mode else raw_len

        charge_new = []
        dup_count = 0
        dup_saved = 0
        seen = set()
        for digest in ordered:
            if digest in own_refs or digest in seen:
                dup_count += 1
                dup_saved += accounted(digest)
            else:
                seen.add(digest)
                charge_new.append(digest)
        # Physical appends: only digests nobody has committed yet.
        phys_new = [digest for digest in charge_new
                    if digest not in cas.refs]
        new_bytes = sum(accounted(digest) for digest in charge_new)
        new_raw_bytes = sum(sizes[digest][0] for digest in charge_new)
        written = (len(blob) if mode else len(raw)) + new_bytes
        raw_logical = len(raw) + sum(sizes[d][0] for d in ordered)
        comp_logical = len(blob) + sum(sizes[d][1] for d in ordered)
        try:
            self.faults.check(FP_STORE_PRE_COMMIT)
        except InjectedCrash:
            self._crash_torn_frame(image_id, frame)
            raise
        committed = []
        index = -1
        try:
            for index, digest in enumerate(phys_new):
                # Crash here tears the page being appended; every earlier
                # page of this store stays committed with no manifest
                # referencing it yet.
                self.faults.check(FP_CAS_PAGE_APPEND)
                raw_len, comp_len = sizes[digest]
                cas.commit_page(digest, contents[digest], raw_len,
                                comp_len, mode)
                committed.append(digest)
            if committed and not cas.async_writeback:
                # Sync durability point: force-flush the touched shards
                # (one group commit each) before the manifest commits, so
                # sharding moved no durability boundary.  Async callers
                # skip this — the service group-commits on its own clock
                # and ``drain`` is the only barrier.
                for sid in sorted({cas.shard_of(d) for d in committed}):
                    self._account_flush(cas.flush_shard(
                        sid, faults=self.faults, costs=self.costs))
            # Crash here strands every page of this store as an orphan:
            # committed payloads, zero references, no manifest.
            self.faults.check(FP_CAS_MANIFEST_COMMIT)
        except InjectedCrash as crash:
            if crash.site == FP_CAS_PAGE_APPEND and 0 <= index:
                digest = phys_new[index]
                content = contents[digest]
                cas.pages[digest] = content[:max(1, len(content) // 2)]
            raise
        except InjectedFault:
            # Transient fault: roll back every page this call committed.
            for digest in committed:
                cas.rollback_page(digest)
            raise
        if charge_time:
            if mode:
                self.clock.advance_us(
                    self.costs.compress_us(len(raw) + new_raw_bytes))
            self.clock.advance_us(
                self.costs.disk_write_us(written, sequential=True))
        self._blobs[image_id] = frame
        self._sizes[image_id] = (raw_logical, comp_logical)
        self._meta_sizes[image_id] = image.metadata_bytes
        self._manifests[image_id] = ordered
        self._manifest_sizes[image_id] = (len(raw), len(blob))
        self._stored_mode[image_id] = mode
        for digest in ordered:
            if cas.add_ref(self.owner, digest):
                raw_len, comp_len = sizes[digest]
                self._page_raw_total += raw_len
                self._page_comp_total += comp_len
        self._frame_raw_total += len(raw)
        self._frame_comp_total += len(blob)
        self.write_count += 1
        self._cached.add(image_id)
        if dup_count:
            self.pages_deduped += dup_count
            self.dedup_bytes_saved += dup_saved
            self._m_pages_deduped.inc(dup_count)
            self._m_dedup_saved.inc(dup_saved)
        cross = len(charge_new) - len(phys_new)
        if cross:
            appended = set(phys_new)
            cross_saved = sum(accounted(digest) for digest in charge_new
                              if digest not in appended)
            cas.cross_pages_deduped += cross
            cas.cross_dedup_bytes_saved += cross_saved
        return StoreReceipt(
            image_id=image_id,
            accounted_bytes=written,
            pages_stored=len(charge_new),
            pages_deduped=dup_count,
            dedup_bytes_saved=dup_saved,
        )

    def _unref(self, digest):
        """Drop one of this owner's manifest references; returns the
        owner-logical bytes freed (accounted at store time) when the
        owner's last reference went away."""
        cas = self.cas
        sizes = cas.sizes.get(digest)
        if sizes is None:
            return 0
        raw_len, comp_len = sizes
        mode = cas.mode.get(digest, self.compress)
        owner_dropped, _reclaimed = cas.unref(self.owner, digest)
        if not owner_dropped:
            return 0
        self._page_raw_total -= raw_len
        self._page_comp_total -= comp_len
        return comp_len if mode else raw_len

    # ------------------------------------------------------------------ #
    # Writeback pipeline

    def _account_flush(self, report):
        """Fold one group-commit batch into this storage's counters."""
        if report is None:
            return
        self._m_flush_batches.inc()
        self._m_flush_pages.inc(report["pages"])
        self._m_flush_bytes.inc(report["bytes"])

    def drain_writeback(self):
        """Flush every queued page append — the writeback barrier.  Used
        before operations that must see a settled physical layout
        (delete/GC/compact/recover) and at fleet shutdown.  Returns the
        aggregate ``{"batches", "pages", "bytes"}`` totals."""
        reports = self.cas.flush_all(costs=self.costs)
        for report in reports:
            self._account_flush(report)
        return {
            "batches": len(reports),
            "pages": sum(r["pages"] for r in reports),
            "bytes": sum(r["bytes"] for r in reports),
        }

    @property
    def writeback_backlog_bytes(self):
        """Bytes enqueued in the CAS but not yet group-committed."""
        return self.cas.backlog_bytes()

    @property
    def writeback_async(self):
        return self.cas.async_writeback

    def unflushed_digests(self):
        """Digests committed logically but still queued (no extent yet);
        the chain verifier's durability-invariant probe."""
        return self.cas.unflushed_digests()

    # ------------------------------------------------------------------ #
    # Frame integrity

    def blob_ok(self, image_id):
        """Validate one stored frame's trailer; ``(ok, reason)``."""
        frame = self._blobs.get(image_id)
        if frame is None:
            return False, "missing"
        if len(frame) <= _TRAILER.size:
            return False, "torn: frame shorter than trailer"
        magic, _raw_len, blob_len, crc = _TRAILER.unpack(
            frame[-_TRAILER.size:])
        if magic != TRAILER_MAGIC:
            return False, "torn: trailer magic missing"
        blob = frame[:-_TRAILER.size]
        if blob_len != len(blob):
            return False, "torn: payload length mismatch"
        if crc != zlib.crc32(blob):
            return False, "corrupt: payload checksum mismatch"
        return True, None

    def blob_fingerprint(self, image_id):
        """SHA-1 hexdigest of one stored frame's bytes — the checkpoint's
        bit-identity, as replay anchors assert it.

        The frame covers the serialized metadata and, for v3 images, the
        page-digest manifest; digest equality implies page-payload
        equality in the content-addressed store, so fingerprint equality
        is whole-checkpoint equality under both layouts.  Pure hashing:
        never charges the virtual clock.
        """
        frame = self._blobs.get(image_id)
        if frame is None:
            raise CheckpointError("no stored checkpoint %d" % image_id)
        return hashlib.sha1(frame).hexdigest()

    # ------------------------------------------------------------------ #
    # Read path

    def load(self, image_id, cached=None, metadata_only=False, clock=None):
        """Read and decode an image.

        ``cached=None`` uses the storage's own cache state; True/False
        force the hot/cold path (benchmarks force both).

        ``metadata_only=True`` charges only for the image's metadata record
        (process/region/page-location tables) — the demand-paged revive
        path, which reads page payloads lazily later.  Either way a v3
        manifest's ``pages`` are hydrated from the CAS (payloads are kept
        raw, so hydration copies nothing), and the returned image carries
        the same :attr:`page_digests` and ``pages`` whichever format it
        came from; a metadata-only load leaves a page whose digest does
        not resolve absent for the demand pager to report when the page
        is first touched.

        ``clock`` charges the read to a *foreign* clock — a revived
        branch demand-pages out of its parent's storage but pays on its
        own timeline, and must not mutate the parent's cache state (the
        branch host's page cache is not the parent's).

        A torn or corrupt frame — or a manifest whose digest cannot be
        resolved — raises :class:`CheckpointError` (after charging for
        the attempted read; the seek still happened).
        """
        raw = self._read(image_id, cached, metadata_only, clock)
        image = CheckpointImage.deserialize(raw)
        if image.page_digests:
            image.pages = self._resolve_pages(image_id, image.page_digests,
                                              strict=not metadata_only)
        return image

    def load_pages(self, image_id, cached=None, metadata_only=False,
                   clock=None):
        """The pages one image holds, ``{key: payload}`` — the revive
        chain read (paper section 5.2: the restore "opens the
        appropriate file and retrieves the necessary pages").

        Charges the clock, bumps ``read_count`` and updates the cache
        state exactly as :meth:`load` with the same arguments, so every
        simulated figure is the same whichever read a caller uses.  What
        it skips is host work: the metadata record is CRC-checked but
        never JSON-decoded, and a v3 manifest's fixed-size page-reference
        records are parsed in bulk and resolved against the CAS (a v2
        blob returns its inline payloads).  Missing digests are handled
        as in :meth:`load`.
        """
        manifest, pages = page_map(
            self._read(image_id, cached, metadata_only, clock))
        if not manifest:
            return pages
        return self._resolve_pages(image_id, pages, strict=not metadata_only)

    def _read(self, image_id, cached, metadata_only, clock):
        """Charge one image read and return its decompressed stream."""
        charge = clock if clock is not None else self.clock
        foreign = charge is not self.clock
        frame = self._blobs.get(image_id)
        if frame is None:
            raise CheckpointError("no stored checkpoint %d" % image_id)
        ok, reason = self.blob_ok(image_id)
        if not ok:
            charge.advance_us(
                self.costs.disk_read_us(len(frame), sequential=False))
            self.read_count += 1
            raise CheckpointError(
                "checkpoint %d unreadable (%s)" % (image_id, reason))
        uncompressed, compressed = self._sizes[image_id]
        read_bytes = compressed if self.compress else uncompressed
        if metadata_only:
            read_bytes = min(read_bytes, self._meta_sizes[image_id])
        if cached is None:
            cached = image_id in self._cached
        if cached:
            charge.advance_us(read_bytes * self.costs.memcpy_us_per_byte)
        else:
            charge.advance_us(
                self.costs.disk_read_us(read_bytes, sequential=False)
            )
            if not metadata_only and not foreign:
                self._cached.add(image_id)
        self.read_count += 1
        raw = zlib.decompress(memoryview(frame)[:-_TRAILER.size])
        # The trailer CRC covers the compressed bytes only; its
        # uncompressed-length field is checked here, once decompressed.
        if len(raw) != _TRAILER.unpack(frame[-_TRAILER.size:])[1]:
            raise CheckpointError(
                "checkpoint %d unreadable (corrupt: uncompressed length "
                "mismatch)" % image_id)
        return raw

    def _resolve_pages(self, image_id, digests, strict):
        """``{key: payload}`` for a ``{key: digest}`` manifest.  ``strict``
        raises :class:`CheckpointError` naming the first (in key order)
        page whose digest is not in the CAS; otherwise such pages are
        left out."""
        store = self.cas.pages
        if not strict:
            return {key: store[digest] for key, digest in digests.items()
                    if digest in store}
        try:
            return dict(zip(digests, map(store.__getitem__,
                                         digests.values())))
        except KeyError:
            missing = min(key for key, digest in digests.items()
                          if digest not in store)
            raise CheckpointError(
                "checkpoint %d unreadable (missing page %r in page store)"
                % (image_id, missing)) from None

    def cas_page(self, digest):
        """Resolve one page payload by digest (None when absent) — the
        chain verifier's per-digest probe."""
        return self.cas.pages.get(digest)

    def is_cached(self, image_id):
        return image_id in self._cached

    def evict_all(self):
        """Drop the page cache (forces the Figure 7 uncached path)."""
        self._cached.clear()

    def stored_ids(self):
        return sorted(self._blobs)

    def size_of(self, image_id):
        """Logical ``(uncompressed, compressed)`` byte sizes of one image
        — what a full read of it costs, counting every referenced page."""
        if image_id not in self._sizes:
            raise CheckpointError("no stored checkpoint %d" % image_id)
        return self._sizes[image_id]

    def metadata_size_of(self, image_id):
        """Byte size of one image's metadata record alone — what a
        demand-paged fork actually reads up front."""
        if image_id not in self._meta_sizes:
            raise CheckpointError("no stored checkpoint %d" % image_id)
        uncompressed, compressed = self._sizes[image_id]
        logical = compressed if self.compress else uncompressed
        return min(logical, self._meta_sizes[image_id])

    def manifest_digests(self, image_id):
        """The stored page-digest manifest of one image (empty for whole
        blobs, whose pages are inline)."""
        if image_id not in self._blobs:
            raise CheckpointError("no stored checkpoint %d" % image_id)
        return self._manifests.get(image_id, ())

    def cas_entries(self):
        """``{digest: {"refs", "uncompressed", "compressed"}}`` for every
        committed CAS page (the property-test observation surface).  Refs
        are global — fleet-wide — counts."""
        return self.cas.entries()

    def fragmentation(self):
        """Live/dead byte split across page extents."""
        return self.cas.fragmentation()

    def dedup_stats(self):
        """Cumulative dedup and reclamation counters (owner-local dedup,
        plus the shared CAS's cross-owner figures)."""
        return {
            "pages_deduped": self.pages_deduped,
            "dedup_bytes_saved": self.dedup_bytes_saved,
            "cas_orphans_reclaimed": self.cas.orphans_reclaimed,
            "cas_pages": len(self.cas.sizes),
            "compaction_runs": self.cas.compaction_runs,
            "compaction_bytes_reclaimed": self.cas.compaction_bytes_reclaimed,
            "cross_pages_deduped": self.cas.cross_pages_deduped,
            "cross_dedup_bytes_saved": self.cas.cross_dedup_bytes_saved,
        }

    def delete(self, image_id):
        """Remove a stored image (checkpoint pruning); returns the bytes
        freed as accounted *at store time* — the manifest plus any CAS
        page whose last reference from this owner this was.

        Pages still sitting in an append queue are handled without a
        drain: reclaiming a queued page *cancels* the pending append
        (it never reaches an extent), so a delete can never race a
        group commit into a half-dead extent."""
        if image_id not in self._blobs:
            raise CheckpointError("no stored checkpoint %d" % image_id)
        uncompressed, compressed = self._sizes.pop(image_id)
        mode = self._stored_mode.pop(image_id, self.compress)
        manifest_sizes = self._manifest_sizes.pop(image_id, None)
        digests = self._manifests.pop(image_id, ())
        del self._blobs[image_id]
        self._meta_sizes.pop(image_id, None)
        self._cached.discard(image_id)
        if manifest_sizes is None:
            # Torn or externally injected frame: only its raw frame bytes
            # were ever accounted.
            manifest_sizes = (uncompressed, compressed)
        man_raw, man_comp = manifest_sizes
        freed = man_comp if mode else man_raw
        self._frame_raw_total -= man_raw
        self._frame_comp_total -= man_comp
        for digest in digests:
            freed += self._unref(digest)
        return freed

    # ------------------------------------------------------------------ #
    # THINNED tombstones (checkpoint thinning via replay)

    def thin(self, image_id, anchor_id, timestamp_us=None,
             framebuffer_sha1=None):
        """Drop a stored checkpoint's bytes, leaving a THINNED tombstone.

        The tombstone records the checkpoint's bit-identity (its frame
        fingerprint, plus the framebuffer checksum its replay anchor
        logged) and the ``anchor_id`` of the nearest *surviving* earlier
        checkpoint — replay from that anchor re-derives the thinned
        instant and is verified against the tombstone before any revive
        hands the session back.  Returns the owner-logical bytes freed
        (0 when the image is already thinned — thinning is idempotent).

        Failpoints: ``thin.tombstone`` fires before the tombstone
        commits (a crash there leaves the image fully intact);
        ``thin.drop_refs`` fires mid-way through the unref loop (a crash
        there leaves the tombstone committed with partial refs — fsck
        rebuilds this owner's counts from surviving manifests).  A
        *transient* fault rolls the whole thin back, including the
        tombstone.
        """
        if image_id in self._tombstones:
            return 0
        if image_id not in self._blobs:
            raise CheckpointError("no stored checkpoint %d" % image_id)
        ok, reason = self.blob_ok(image_id)
        if not ok:
            raise CheckpointError(
                "cannot thin unreadable checkpoint %d (%s)"
                % (image_id, reason))
        if anchor_id is None:
            raise CheckpointError(
                "checkpoint %d needs a surviving replay anchor to thin"
                % image_id)
        if anchor_id not in self._blobs or not self.blob_ok(anchor_id)[0]:
            raise CheckpointError(
                "thin anchor %d for checkpoint %d is not stored intact"
                % (anchor_id, image_id))
        tombstone = {
            "image_id": image_id,
            "anchor_id": anchor_id,
            "timestamp_us": timestamp_us,
            "checkpoint_fp": self.blob_fingerprint(image_id),
            "framebuffer_sha1": framebuffer_sha1,
        }
        # Crash before the tombstone record lands: nothing changed, the
        # next thinning pass simply picks the image up again.
        self.faults.check(FP_THIN_TOMBSTONE)
        self._tombstones[image_id] = tombstone
        # From here the drop mirrors :meth:`delete`, with a mid-loop
        # failpoint and a transient-fault rollback snapshot.
        cas = self.cas
        uncompressed, compressed = self._sizes.pop(image_id)
        mode = self._stored_mode.pop(image_id, self.compress)
        manifest_sizes = self._manifest_sizes.pop(image_id, None)
        digests = self._manifests.pop(image_id, ())
        frame = self._blobs.pop(image_id)
        meta_size = self._meta_sizes.pop(image_id, None)
        was_cached = image_id in self._cached
        self._cached.discard(image_id)
        if manifest_sizes is None:
            manifest_sizes = (uncompressed, compressed)
        man_raw, man_comp = manifest_sizes
        freed = man_comp if mode else man_raw
        self._frame_raw_total -= man_raw
        self._frame_comp_total -= man_comp
        snapshot = {
            digest: (cas.pages.get(digest), cas.sizes[digest],
                     cas.mode.get(digest, mode))
            for digest in set(digests) if digest in cas.sizes
        }
        dropped = []
        midpoint = len(digests) // 2
        try:
            for index, digest in enumerate(digests):
                if index == midpoint:
                    self.faults.check(FP_THIN_DROP_REFS)
                freed += self._unref(digest)
                dropped.append(digest)
        except InjectedFault:
            # Transient fault: the thin never happened.  Resurrect any
            # page the partial unrefs reclaimed, retake the refs, restore
            # the image bookkeeping, and withdraw the tombstone.
            for digest in reversed(dropped):
                payload, (raw_len, comp_len), pmode = snapshot[digest]
                if digest not in cas.sizes:
                    cas.commit_page(digest, payload, raw_len, comp_len,
                                    pmode)
                if cas.add_ref(self.owner, digest):
                    self._page_raw_total += raw_len
                    self._page_comp_total += comp_len
            self._blobs[image_id] = frame
            self._sizes[image_id] = (uncompressed, compressed)
            self._stored_mode[image_id] = mode
            self._manifest_sizes[image_id] = manifest_sizes
            self._manifests[image_id] = digests
            if meta_size is not None:
                self._meta_sizes[image_id] = meta_size
            if was_cached:
                self._cached.add(image_id)
            self._frame_raw_total += man_raw
            self._frame_comp_total += man_comp
            del self._tombstones[image_id]
            raise
        return freed

    def is_thinned(self, image_id):
        """True when ``image_id`` was thinned: its bytes are gone but a
        tombstone keeps its instant replay-revivable."""
        return image_id in self._tombstones

    def tombstone_of(self, image_id):
        """The THINNED tombstone record for ``image_id`` (None when the
        image is not thinned)."""
        tombstone = self._tombstones.get(image_id)
        return dict(tombstone) if tombstone is not None else None

    def thinned_ids(self):
        """Sorted ids of every thinned (tombstoned) checkpoint."""
        return sorted(self._tombstones)

    @property
    def tombstones(self):
        """``{image id: tombstone record}`` for every thinned image."""
        return {image_id: dict(ts)
                for image_id, ts in self._tombstones.items()}

    def reconcile_tombstones(self):
        """Drop tombstones that can no longer serve a replay-based
        revive: the image's blob is (still) stored intact — the thin
        never completed, the intact image wins — or the anchor the
        tombstone replays from is gone or unreadable.  Returns the list
        of ``{"image_id", "reason"}`` drops (the fsck and prune paths
        fold it into their reports)."""
        dropped = []
        for image_id in sorted(self._tombstones):
            anchor_id = self._tombstones[image_id].get("anchor_id")
            reason = None
            if image_id in self._blobs:
                reason = "image intact"
            elif anchor_id is None or anchor_id not in self._blobs:
                reason = "anchor gone"
            elif not self.blob_ok(anchor_id)[0]:
                reason = "anchor unreadable"
            if reason is not None:
                del self._tombstones[image_id]
                dropped.append({"image_id": image_id, "reason": reason})
        return dropped

    def export_tombstones(self, log_data=None):
        """Serialize the tombstones (plus, optionally, the replay-log
        segment that re-derives them) as one TLV stream — the
        pre-thinned-recording fixture format."""
        from repro.common.serial import RecordWriter

        writer = RecordWriter(kind=STREAM_KIND_THIN)
        for image_id in sorted(self._tombstones):
            payload = json.dumps(
                self._tombstones[image_id], sort_keys=True,
                separators=(",", ":")).encode("utf-8")
            writer.write(REC_THIN_TOMBSTONE, payload)
        if log_data:
            writer.write(REC_THIN_LOG, bytes(log_data))
        return writer.getvalue()

    def import_tombstones(self, data):
        """Load tombstone records from :meth:`export_tombstones` bytes.

        Unknown record tags are skipped (forward compatibility); a
        tombstone for an image this store holds intact is *not* imported
        (the intact image wins, exactly as in
        :meth:`reconcile_tombstones`).  Returns ``(loaded_count,
        embedded_log_bytes_or_None)``.
        """
        from repro.common.serial import RecordReader

        loaded = 0
        log_data = None
        for tag, payload, _offset in RecordReader(
                data, expect_kind=STREAM_KIND_THIN):
            if tag == REC_THIN_TOMBSTONE:
                tombstone = json.loads(payload.decode("utf-8"))
                image_id = tombstone.get("image_id")
                if image_id is None or image_id in self._blobs:
                    continue
                self._tombstones[image_id] = tombstone
                loaded += 1
            elif tag == REC_THIN_LOG:
                log_data = payload
        return loaded, log_data

    # ------------------------------------------------------------------ #
    # Base-manifest pins (branchable revive)

    @property
    def base_manifests(self):
        """``{source image id: digest tuple}`` of committed pins."""
        return dict(self._base_manifests)

    def pin_base_manifest(self, source_id, digests):
        """Take owner references on a source checkpoint's page digests.

        A branch forked from another owner's checkpoint pins the
        checkpoint chain's manifests under *its own* owner bucket, so
        (a) the parent pruning the source never reclaims pages the
        branch still demand-pages, and (b) the branch's first own
        checkpoints dedup against the base — only diverged pages cost
        bytes.  Pinned bytes are charged to the branch's owner-logical
        totals exactly like stored pages.

        The pin commits (``_base_manifests``) only after every ref is
        taken: a crash mid-loop (failpoint ``revive.branch.refs``)
        leaves partial raw refs that :meth:`recover`'s owner-scoped
        rebuild wipes, because no committed record derives them.  An
        injected transient fault rolls the partial refs back.
        """
        digests = tuple(digests)
        if source_id in self._base_manifests:
            return 0
        cas = self.cas
        pinned_bytes = 0
        taken = []
        midpoint = len(digests) // 2
        try:
            for index, digest in enumerate(digests):
                if index == midpoint:
                    self.faults.check(FP_BRANCH_REFS)
                if cas.add_ref(self.owner, digest):
                    raw_len, comp_len = cas.sizes.get(digest, (0, 0))
                    self._page_raw_total += raw_len
                    self._page_comp_total += comp_len
                    mode = cas.mode.get(digest, self.compress)
                    pinned_bytes += comp_len if mode else raw_len
                taken.append(digest)
        except InjectedFault:
            for digest in reversed(taken):
                self._unref(digest)
            raise
        self._base_manifests[source_id] = digests
        return pinned_bytes

    def release_base_manifests(self):
        """Drop every base-manifest pin; returns owner-logical bytes
        freed.  Deleting a branch releases exactly its private pages:
        base pages still referenced by the parent or a sibling survive."""
        freed = 0
        for digests in self._base_manifests.values():
            for digest in digests:
                freed += self._unref(digest)
        self._base_manifests.clear()
        return freed

    # ------------------------------------------------------------------ #
    # Compaction

    def compact(self, dead_fraction=DEFAULT_DEAD_FRACTION, charge_time=True):
        """Reclaim orphaned CAS pages and rewrite fragmented extents
        (see :meth:`PageCAS.compact`); time is charged to this storage's
        clock.  With a shared CAS prefer the fleet-level entry point,
        which charges the service clock instead of one member's."""
        before = self.cas.orphans_reclaimed
        report = self.cas.compact(
            dead_fraction=dead_fraction,
            clock=self.clock if charge_time else None,
            costs=self.costs if charge_time else None,
        )
        reclaimed = self.cas.orphans_reclaimed - before
        if reclaimed:
            self._m_orphans.inc(reclaimed)
        self._sync_page_totals()
        return report

    def _sync_page_totals(self):
        """Recompute the owner-logical page totals from the CAS (used
        after operations that may reclaim pages out from under manifests:
        compaction orphan sweeps, fsck)."""
        raw, comp = self.cas.owner_logical_totals(self.owner)
        self._page_raw_total = raw
        self._page_comp_total = comp

    # ------------------------------------------------------------------ #
    # Recovery

    def recover(self, fsstore=None):
        """Post-crash fsck of the image store.

        Phases: (1) drop torn/corrupt manifest frames; (2) discard
        torn/corrupt CAS pages (content hash mismatch, or payloads that
        never committed); (3) drop manifests referencing missing digests
        — a dangling manifest cannot revive; (4) rebuild *this owner's*
        refcounts from the surviving manifests and reclaim pages no owner
        references (other owners' counts are never touched, so one
        session's recovery cannot reclaim pages a fleet peer still
        needs); (5) run :func:`verify_chain` and delete any image it
        flags, iterating to a fixpoint (then re-reclaim any pages those
        drops orphaned); (6) recompute the owner-logical totals from what
        survived.  When ``fsstore`` is given, the file-system snapshot
        bindings of dropped checkpoints are unprotected so the LFS
        cleaner can reclaim them.

        Returns a report dict; ``verify_ok`` is True when the surviving
        store passes a final verification pass.
        """
        from repro.checkpoint.verify import verify_chain

        cas = self.cas
        report = {
            "torn_dropped": [],
            "chain_dropped": [],
            "manifest_dropped": [],
            "cas_pages_dropped": 0,
            "cas_orphans_reclaimed": 0,
            "verify_ok": True,
            "remaining": 0,
        }

        def forget(image_id):
            self._blobs.pop(image_id, None)
            self._sizes.pop(image_id, None)
            self._meta_sizes.pop(image_id, None)
            self._manifests.pop(image_id, None)
            self._manifest_sizes.pop(image_id, None)
            self._stored_mode.pop(image_id, None)
            self._cached.discard(image_id)
            if fsstore is not None:
                try:
                    fsstore.fs.unprotect_checkpoint(image_id)
                except SnapshotError:
                    pass

        # Phase 1: torn/corrupt manifest frames.
        for image_id in self.stored_ids():
            ok, reason = self.blob_ok(image_id)
            if not ok:
                forget(image_id)
                report["torn_dropped"].append({"image_id": image_id,
                                               "reason": reason})

        # Phase 2: CAS page integrity.  Queued appends nobody references
        # were in flight when the crash hit — those writes are gone.
        report["cas_pages_dropped"] += cas.drop_uncommitted()
        report["cas_queued_dropped"] = cas.drop_queued_orphans()
        for digest in list(cas.pages):
            if page_digest(cas.pages[digest]) != digest:
                cas.reclaim_page(digest)
                report["cas_pages_dropped"] += 1

        # Phase 3: manifests must resolve.  A frame injected without
        # bookkeeping (or recovered from a foreign store) gets its
        # manifest rebuilt from the blob itself.
        for image_id in self.stored_ids():
            digests = self._manifests.get(image_id)
            if digests is None:
                try:
                    frame = self._blobs[image_id]
                    _magic, raw_len, blob_len, _crc = _TRAILER.unpack(
                        frame[-_TRAILER.size:])
                    image = CheckpointImage.deserialize(
                        zlib.decompress(frame[:-_TRAILER.size]))
                    manifest = image.manifest()
                    digests = tuple(manifest[key]
                                    for key in sorted(manifest))
                    if not image.page_digests:
                        digests = ()  # v2 blob: pages inline
                    self._manifests[image_id] = digests
                    self._manifest_sizes[image_id] = (raw_len, blob_len)
                    self._stored_mode.setdefault(image_id, self.compress)
                except Exception:
                    forget(image_id)
                    report["torn_dropped"].append(
                        {"image_id": image_id, "reason": "corrupt: undecodable"})
                    continue
            if any(digest not in cas.pages for digest in digests):
                forget(image_id)
                report["manifest_dropped"].append(image_id)

        # Phase 3b: base-manifest pins must resolve too.  A pin whose
        # digests vanished (the source chain was torn away) is dropped —
        # the branch can no longer demand-page that image.
        report["base_manifests_dropped"] = []
        for source_id in sorted(self._base_manifests):
            if any(digest not in cas.pages
                   for digest in self._base_manifests[source_id]):
                del self._base_manifests[source_id]
                report["base_manifests_dropped"].append(source_id)

        def rebuild_refs():
            self._manifests = {image_id: self._manifests.get(image_id, ())
                               for image_id in self._blobs}
            # Owner refs derive from committed state only: surviving
            # manifests plus committed base-manifest pins.  Partial pins
            # from a crash mid-``pin_base_manifest`` have no committed
            # record and are wiped here — the branch-fork fsck.
            derived = list(self._manifests.values())
            derived.extend(self._base_manifests.values())
            reclaimed = cas.rebuild_owner_refs(self.owner, derived)
            report["cas_orphans_reclaimed"] += reclaimed

        # Phase 4: this owner's refcounts come from its surviving
        # manifests; anything no owner references is an orphan.
        rebuild_refs()

        # Phase 5: chain repair to fixpoint — each pass can only delete,
        # so the loop is bounded by the number of stored images.
        verdict = verify_chain(self, fsstore)
        for _ in range(len(self._blobs)):
            flagged = sorted({issue.image_id for issue in verdict.issues
                              if issue.image_id in self._blobs})
            if not flagged:
                break
            for image_id in flagged:
                forget(image_id)
                report["chain_dropped"].append(image_id)
            rebuild_refs()
            verdict = verify_chain(self, fsstore)
        report["verify_ok"] = verdict.ok

        # Phase 5b: reconcile THINNED tombstones against the survivors.
        # An imported tombstone may conflict with an intact image (the
        # image wins); chain repair may have dropped an anchor out from
        # under a tombstone (unreplayable — dropped too).  Partial
        # unrefs from a ``thin.drop_refs`` crash were already converged
        # by the owner-scoped ref rebuild above.
        report["tombstones_dropped"] = self.reconcile_tombstones()
        report["tombstones"] = len(self._tombstones)

        # Phase 6: recompute the owner-logical totals from the survivors.
        total_raw = 0
        total_comp = 0
        for image_id in self._blobs:
            man_raw, man_comp = self._manifest_sizes.get(
                image_id, self._sizes.get(image_id, (0, 0)))
            total_raw += man_raw
            total_comp += man_comp
        self._frame_raw_total = total_raw
        self._frame_comp_total = total_comp
        self._sync_page_totals()
        if report["cas_orphans_reclaimed"]:
            self._m_orphans.inc(report["cas_orphans_reclaimed"])
        report["remaining"] = len(self._blobs)
        return report

    def __contains__(self, image_id):
        return image_id in self._blobs

    def __len__(self):
        return len(self._blobs)
