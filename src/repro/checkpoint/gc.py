"""Checkpoint pruning and storage reclamation.

The paper leans on "continued exponential improvements in storage capacity"
to keep everything forever; a practical deployment also wants to *prune*.
Pruning a checkpoint has two parts, and both have dependencies:

* **images** — an incremental image's pages may be the latest copy of pages
  that *later* images' page-location directories still reference, so the
  set of images that must be kept is the transitive owner set of the kept
  checkpoints;
* **file system snapshots** — the LFS snapshot bound to a pruned checkpoint
  becomes unprotected, and the log cleaner can reclaim blocks reachable
  only from unprotected history (the NILFS checkpoint/snapshot model).

With the content-addressed page store, deleting an image only decrements
page refcounts; pages whose last reference goes away leave *dead bytes*
inside their append-only extents.  :func:`prune_checkpoints` therefore
finishes with a **compaction pass** (:meth:`CheckpointStorage.compact`)
that reclaims orphaned pages and rewrites extents whose dead fraction
crossed the threshold, so pruning actually returns disk space instead of
just punching holes.

:func:`prune_checkpoints` performs all of it, safely.

**Thinning** (:func:`thin_checkpoints`) is the gentler sibling: instead of
deleting an instant outright, an age-tiered :class:`ThinningPolicy` drops
the checkpoint *bytes* of older instants while a THINNED tombstone keeps
them on the timeline — replaying the event log forward from the nearest
surviving anchor re-derives the dropped state bit-identically (the rr /
ReVirt insight: logging substitutes for state copies).  Thinning never
touches the recent tier, survivors' transitive required images, branch
fork points, explicit protections, or any instant without a surviving
replay anchor to re-derive it from.
"""

from dataclasses import dataclass, field

from repro.common.errors import CheckpointError
from repro.common.units import seconds


@dataclass
class PruneReport:
    """Outcome of one pruning pass."""

    kept_images: tuple
    deleted_images: tuple
    image_bytes_freed: int
    fs_bytes_reclaimed: int
    cas_orphans_reclaimed: int = 0
    extents_rewritten: int = 0
    pages_moved: int = 0
    extent_bytes_reclaimed: int = 0
    writeback_pages_drained: int = 0
    writeback_bytes_drained: int = 0


def required_images(storage, keep_ids):
    """The images that must be retained to revive every kept checkpoint.

    Each kept image's page-location directory names the image holding each
    page's latest copy; all of those owners are required (the directory is
    already transitive, so one hop suffices).
    """
    required = set()
    for checkpoint_id in keep_ids:
        if checkpoint_id not in storage:
            raise CheckpointError("cannot keep unknown checkpoint %d"
                                  % checkpoint_id)
        required.add(checkpoint_id)
        image = storage.load(checkpoint_id, cached=True)
        required.update(image.page_locations.values())
    return required


def prune_checkpoints(storage, fsstore, keep_ids, compact=True):
    """Delete every checkpoint not needed to revive ``keep_ids``.

    Returns a :class:`PruneReport`.  The file system's checkpoint bindings
    for deleted checkpoints are removed and the log cleaner runs, so both
    image storage and log space shrink.

    ``compact=False`` skips the trailing compaction pass — a fleet prunes
    each member storage with compaction off and then compacts the shared
    CAS once, on the service clock, so one session's pruning never
    charges another session for the extent rewrites.
    """
    keep_ids = set(keep_ids)
    required = required_images(storage, keep_ids)
    # Drain the writeback pipeline first: GC must never race in-flight
    # group commits (deleting a queued page cancels its append, but
    # compaction reclaims extents — every queued byte must be on disk or
    # cancelled before space accounting is trusted).
    drained = {}
    drainer = getattr(storage, "drain_writeback", None)
    if drainer is not None:
        drained = drainer()
    deleted = []
    freed = 0
    fs = fsstore.fs
    for image_id in storage.stored_ids():
        if image_id in required:
            continue
        freed += storage.delete(image_id)
        try:
            fs.unprotect_checkpoint(image_id)
        except Exception:
            pass  # the image may predate the fs binding (tests)
        deleted.append(image_id)
    reclaimed = fs.collect_garbage(fs.protected_txns())
    # Pruning may have deleted a tombstone's replay anchor out from
    # under it; such tombstones can no longer revive and are dropped.
    reconcile = getattr(storage, "reconcile_tombstones", None)
    if reconcile is not None:
        reconcile()
    compaction = {}
    compactor = getattr(storage, "compact", None)
    if compact and compactor is not None:
        compaction = compactor()
    return PruneReport(
        kept_images=tuple(sorted(required)),
        deleted_images=tuple(sorted(deleted)),
        image_bytes_freed=freed,
        fs_bytes_reclaimed=reclaimed,
        cas_orphans_reclaimed=compaction.get("orphans_reclaimed", 0),
        extents_rewritten=compaction.get("extents_rewritten", 0),
        pages_moved=compaction.get("pages_moved", 0),
        extent_bytes_reclaimed=compaction.get("bytes_reclaimed", 0),
        writeback_pages_drained=drained.get("pages", 0),
        writeback_bytes_drained=drained.get("bytes", 0),
    )


# ---------------------------------------------------------------------- #
# Checkpoint thinning via replay

#: Everything younger than this survives untouched (the paper's "revive
#: at a time relatively close to the current time" is the common case).
DEFAULT_RECENT_WINDOW_US = seconds(5)

#: Age tiers beyond the recent window, youngest first: ``(age_limit_us,
#: keep_every_nth)``; ``None`` as the limit means "and older".  The
#: default keeps every 2nd instant up to a minute of age and every 4th
#: beyond that.
DEFAULT_TIERS = ((seconds(60), 2), (None, 4))


@dataclass(frozen=True)
class ThinningPolicy:
    """Age-tiered retention for the checkpoint stream.

    Instants younger than ``recent_window_us`` are always kept.  Older
    instants fall into ``tiers`` — ``(age_limit_us, keep_every_nth)``
    pairs ordered youngest-first, ``None`` meaning unbounded age — and
    within each tier every Nth instant (oldest-first) is kept as a
    replay anchor while the rest become thinning candidates.  The
    newest instant and anything in ``protect`` are never candidates.

    Tier positions are counted over the *full* timeline (tombstoned
    instants included), so re-planning after a pass — or after a crash
    mid-pass — selects the same survivors: thinning is idempotent.
    """

    recent_window_us: int = DEFAULT_RECENT_WINDOW_US
    tiers: tuple = DEFAULT_TIERS

    def plan(self, history, now_us, protect=()):
        """The checkpoint ids this policy wants thinned.

        ``history`` is an iterable of records with ``checkpoint_id`` and
        ``timestamp_us`` attributes (or ``(checkpoint_id,
        timestamp_us)`` pairs) covering the whole timeline; ``now_us``
        is the clock ages are measured against.
        """
        entries = []
        for record in history:
            checkpoint_id = getattr(record, "checkpoint_id", None)
            if checkpoint_id is None:
                checkpoint_id, timestamp_us = record
            else:
                timestamp_us = record.timestamp_us
            entries.append((timestamp_us, checkpoint_id))
        entries.sort()
        protect = set(protect)
        if entries:
            protect.add(entries[-1][1])  # the newest instant survives
        tier_positions = {}
        drops = set()
        for timestamp_us, checkpoint_id in entries:  # oldest first
            age = now_us - timestamp_us
            if age <= self.recent_window_us:
                continue
            selected = None
            for index, (age_limit_us, keep_every) in enumerate(self.tiers):
                if age_limit_us is None or age <= age_limit_us:
                    selected = (index, max(1, keep_every))
                    break
            if selected is None:
                continue
            tier_index, keep_every = selected
            position = tier_positions.get(tier_index, 0)
            tier_positions[tier_index] = position + 1
            if position % keep_every == 0:
                continue
            if checkpoint_id in protect:
                continue
            drops.add(checkpoint_id)
        return drops


@dataclass
class ThinReport:
    """Outcome of one thinning pass."""

    kept_images: tuple
    thinned_images: tuple
    image_bytes_freed: int
    tombstones: int
    skipped_required: tuple = ()
    skipped_unanchored: tuple = ()
    cas_orphans_reclaimed: int = 0
    extent_bytes_reclaimed: int = 0
    compaction: dict = field(default_factory=dict)


def thin_checkpoints(storage, history, policy, now_us, anchors=None,
                     protect=(), compact=False):
    """Apply a :class:`ThinningPolicy` to a checkpoint timeline.

    Each selected instant's bytes are dropped through
    :meth:`CheckpointStorage.thin`, leaving a THINNED tombstone naming
    the nearest surviving earlier anchor to replay from.  Never thinned,
    whatever the policy says: ids in ``protect`` (branch fork points,
    last-good recovery anchors), the newest instant, any image in a
    survivor's transitive required set (``skipped_required`` — thinning
    must never create dangling page locations; a rescued candidate's own
    required images are kept too, repeated to a fixpoint), and any
    instant with no surviving earlier anchor to re-derive it from
    (``skipped_unanchored``).

    ``anchors`` — ``{checkpoint_id: {"timestamp_us",
    "framebuffer_sha1", "checkpoint_fp"}}`` harvested from the replay
    log's EV_ANCHOR events — restricts both sides when given: only
    instants *carrying* an anchor event may be thinned (replay must
    verify and stop at the target's anchor) and only anchored survivors
    may serve as replay sources.  ``None`` (no replay log, e.g. fleet
    members without taps) lets any surviving checkpoint anchor: the
    tombstones then still free storage and keep the timeline, but only
    log-bearing sessions can replay-revive them.

    ``compact=True`` finishes with a CAS compaction pass on the
    storage's own clock (solo sessions); a fleet compacts the shared
    CAS separately on the service clock.  Returns a :class:`ThinReport`.
    """
    entries = []
    for record in history:
        checkpoint_id = getattr(record, "checkpoint_id", None)
        if checkpoint_id is None:
            checkpoint_id, timestamp_us = record
        else:
            timestamp_us = record.timestamp_us
        entries.append((timestamp_us, checkpoint_id))
    entries.sort()
    stored = [(ts, cid) for ts, cid in entries if cid in storage]
    drops = policy.plan([(cid, ts) for ts, cid in entries], now_us,
                        protect=protect)
    drops &= {cid for _ts, cid in stored}
    skipped_unanchored = []
    if anchors is not None:
        unanchored = {cid for cid in drops if cid not in anchors}
        skipped_unanchored.extend(sorted(unanchored))
        drops -= unanchored
    survivors = [cid for _ts, cid in stored if cid not in drops]
    required = required_images(storage, survivors)
    # A rescued candidate is a survivor too: its own required images
    # must stay, which may rescue further candidates — to a fixpoint.
    rescued = set()
    while drops & required:
        newly = drops & required
        rescued |= newly
        drops -= newly
        required |= required_images(storage, newly)
    skipped_required = tuple(sorted(rescued))
    thinned = []
    freed = 0
    last_anchor = None
    for timestamp_us, checkpoint_id in stored:
        if checkpoint_id not in drops:
            if anchors is None or checkpoint_id in anchors:
                last_anchor = checkpoint_id
            continue
        if last_anchor is None:
            skipped_unanchored.append(checkpoint_id)
            continue
        info = anchors.get(checkpoint_id, {}) if anchors else {}
        freed += storage.thin(
            checkpoint_id, anchor_id=last_anchor,
            timestamp_us=timestamp_us,
            framebuffer_sha1=info.get("framebuffer_sha1"))
        thinned.append(checkpoint_id)
    compaction = {}
    if compact and thinned:
        compaction = storage.compact()
    return ThinReport(
        kept_images=tuple(cid for _ts, cid in stored
                          if cid not in set(thinned)),
        thinned_images=tuple(thinned),
        image_bytes_freed=freed,
        tombstones=len(getattr(storage, "thinned_ids", lambda: ())()),
        skipped_required=skipped_required,
        skipped_unanchored=tuple(sorted(set(skipped_unanchored))),
        cas_orphans_reclaimed=compaction.get("orphans_reclaimed", 0),
        extent_bytes_reclaimed=compaction.get("bytes_reclaimed", 0),
        compaction=compaction,
    )
