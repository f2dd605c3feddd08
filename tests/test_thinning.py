"""Property battery for checkpoint thinning via replay.

The contract under test: an age-tiered :class:`ThinningPolicy` may drop
the *bytes* of older instants, but never their identity — a THINNED
tombstone keeps each on the timeline, and replaying the event log
forward from the nearest surviving anchor re-derives the dropped state
**bit-identically** (tombstone fingerprints are recorded truth, and
:meth:`ReviveManager.revive_thinned` refuses any mismatch).  The battery
checks that equivalence across seeds and CAS shard counts, that thinning
is idempotent, that GC reclaims exactly the thinned-only pages, and that
the never-thin invariants (protect set, newest instant, survivors'
required images, unanchored instants, branch fork points, last-good
recovery anchors) all hold.

Workloads here are *hot-churn* (each unit rewrites the same leading heap
pages) so older incrementals actually become droppable; the round-robin
churn of :func:`tests.faulthelpers.drive` is used where the point is the
required-images pin.
"""

import os

import pytest

from repro.checkpoint.gc import ThinningPolicy, thin_checkpoints
from repro.checkpoint.image import CheckpointImage
from repro.checkpoint.storage import CheckpointStorage
from repro.checkpoint.verify import verify_chain
from repro.common.faults import FaultPlan, InjectedCrash
from repro.common.units import seconds
from repro.desktop.dejaview import DejaView, RecordingConfig
from repro.desktop.session import DesktopSession
from repro.display.commands import Region
from repro.display.recorder import RecorderConfig
from repro.replay import RecordingTap, anchor_ids, prepare_events

from tests.faulthelpers import COLORS

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

UNITS = 14
SEEDS = [11, 23, 47]
SHARD_COUNTS = [1, 4]

#: Single aggressive tier: everything older than 2 simulated seconds is
#: a candidate, every 2nd instant kept as a replay anchor.
POLICY = ThinningPolicy(recent_window_us=seconds(2), tiers=((None, 2),))


def build_thin_session(seed=0, shards=1, fault_plan=None, replay_tap=None):
    """A small session with a seeded identity and ``shards`` CAS shards."""
    if replay_tap is None:
        replay_tap = RecordingTap(meta={
            "script": "test_thinning.seeded_drive",
            "seed": seed, "shards": shards,
        })
    session = DesktopSession(width=64, height=48, replay_tap=replay_tap)
    config = RecordingConfig(
        fault_plan=fault_plan,
        cas_shards=shards,
        recorder_config=RecorderConfig(screenshot_interval_us=seconds(1)),
    )
    dejaview = DejaView(session, config)
    return session, dejaview


def seeded_drive(session, dejaview, seed, units=UNITS):
    """Deterministic hot-churn workload varied by ``seed``.

    Every unit repaints the screen and rewrites the leading heap pages
    (``hot=True``), so each instant's pages are superseded by the next
    checkpoint and the policy's drops are actually droppable.  The seed
    shifts colors, page counts, and which units show text — distinct
    timelines, same determinism (the replay driver re-runs this
    verbatim).
    """
    editor = session.apps.get("editor")
    if editor is None:
        editor = session.launch("editor")
        editor.focus()
    for i in range(units):
        editor.draw_fill(Region(0, 0, session.width, session.height),
                         COLORS[(seed + i) % len(COLORS)])
        if (seed + i) % 3 == 0:
            editor.show_text("seed%d unit%d" % (seed, i))
        editor.dirty_memory((2 + (seed + i) % 3) * 4096, hot=True)
        dejaview.tick()
        session.clock.advance_us(seconds(1))
    return editor


def seeded_factory(seed, shards, units=UNITS):
    """``factory(meta, capture) -> driver`` rebuilding the seeded run
    (what :meth:`ReviveManager.revive_thinned` replays through)."""
    def factory(_meta, capture):
        def driver(tap):
            session, dejaview = build_thin_session(
                seed=seed, shards=shards, replay_tap=tap)
            capture["session"] = session
            capture["dejaview"] = dejaview
            seeded_drive(session, dejaview, seed, units=units)
        return driver
    return factory


def record(seed, shards, fault_plan=None):
    session, dejaview = build_thin_session(seed=seed, shards=shards,
                                           fault_plan=fault_plan)
    seeded_drive(session, dejaview, seed)
    dejaview.reviver.replay_driver_factory = seeded_factory(seed, shards)
    return session, dejaview


def _revive_targets(thinned):
    """First, middle, and last thinned instants — bounded replay work
    while still covering both ends of the replay-distance range."""
    picks = {thinned[0], thinned[len(thinned) // 2], thinned[-1]}
    return sorted(picks)


class TestThinReviveEquivalence:
    """The tentpole property: thin, then revive through replay, and the
    re-derived instants are bit-identical to what was dropped."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_thin_then_revive_bit_identical(self, seed, shards):
        session, dejaview = record(seed, shards)
        storage = dejaview.storage
        # Recorded truth, captured *before* any bytes are dropped.
        pre_fp = {image_id: storage.blob_fingerprint(image_id)
                  for image_id in storage.stored_ids()}
        timestamps = {r.checkpoint_id: r.timestamp_us
                      for r in dejaview.engine.history}

        report = dejaview.thin_checkpoints(policy=POLICY, compact=True)
        assert report.thinned_images, \
            "seed %d/shards %d produced no thinnable instants" \
            % (seed, shards)
        assert verify_chain(storage, session.fsstore).ok

        for image_id in report.thinned_images:
            tombstone = storage.tombstone_of(image_id)
            # The tombstone fingerprint IS the pre-thin image bytes.
            assert tombstone["checkpoint_fp"] == pre_fp[image_id]
            assert tombstone["framebuffer_sha1"]

        for image_id in _revive_targets(report.thinned_images):
            revived = dejaview.take_me_back(timestamps[image_id])
            # revive_thinned verified the replayed checkpoint and
            # framebuffer fingerprints against the tombstone — reaching
            # here means the re-derived state is bit-identical.
            assert revived.checkpoint_id == image_id
            assert revived.replayed
            assert revived.replay_anchor_id == \
                storage.tombstone_of(image_id)["anchor_id"]
            assert revived.replay_events_verified > 0
            assert revived.container.live_processes()

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_equivalence_survives_mid_thin_crash(self, shards):
        """Crash halfway through dropping refs, recover, re-thin: the
        equivalence property must hold for every tombstone, including
        the one whose thin was interrupted."""
        seed = SEEDS[0]
        plan = FaultPlan()
        plan.add("thin.drop_refs", mode="crash")
        session, dejaview = record(seed, shards, fault_plan=plan)
        storage = dejaview.storage
        pre_fp = {image_id: storage.blob_fingerprint(image_id)
                  for image_id in storage.stored_ids()}
        timestamps = {r.checkpoint_id: r.timestamp_us
                      for r in dejaview.engine.history}

        with pytest.raises(InjectedCrash):
            dejaview.thin_checkpoints(policy=POLICY)
        report = dejaview.recover()
        assert report["ok"], report
        done = dejaview.thin_checkpoints(policy=POLICY)
        thinned = sorted(storage.thinned_ids())
        assert thinned
        assert verify_chain(storage, session.fsstore).ok

        for image_id in thinned:
            assert storage.tombstone_of(image_id)["checkpoint_fp"] \
                == pre_fp[image_id]
        for image_id in _revive_targets(thinned):
            revived = dejaview.take_me_back(timestamps[image_id])
            assert revived.checkpoint_id == image_id
            assert revived.replayed
        assert not dejaview.thin_checkpoints(policy=POLICY).thinned_images
        assert done.tombstones == len(thinned)


class TestThinningIdempotent:
    def test_second_pass_is_a_noop(self):
        _session, dejaview = record(SEEDS[0], 1)
        first = dejaview.thin_checkpoints(policy=POLICY)
        assert first.thinned_images
        before = sorted(dejaview.storage.thinned_ids())
        second = dejaview.thin_checkpoints(policy=POLICY)
        assert not second.thinned_images
        assert second.image_bytes_freed == 0
        assert sorted(dejaview.storage.thinned_ids()) == before

    def test_plan_counts_full_timeline(self):
        """Tier positions are computed over the whole timeline, so
        re-planning after a pass selects the same survivors instead of
        cascading into the previous pass's keepers."""
        _session, dejaview = record(SEEDS[1], 1)
        history = dejaview.engine.history
        now_us = dejaview.session.clock.now_us
        drops = POLICY.plan(history, now_us)
        dejaview.thin_checkpoints(policy=POLICY)
        assert POLICY.plan(history, now_us) == drops


class TestThinningGC:
    def test_gc_frees_exactly_the_thinned_only_pages(self):
        session, dejaview = record(SEEDS[0], 1)
        storage = dejaview.storage
        manifests = {image_id: set(storage.manifest_digests(image_id))
                     for image_id in storage.stored_ids()}
        report = dejaview.thin_checkpoints(policy=POLICY, compact=True)
        thinned = set(report.thinned_images)
        assert thinned
        survivors = set(storage.stored_ids())
        survivor_pages = set().union(
            *(manifests[image_id] for image_id in survivors))
        doomed_only = set().union(
            *(manifests[image_id] for image_id in thinned)) - survivor_pages
        assert doomed_only, "thinned images shared every page"
        # Exactly the thinned-only pages are gone; every surviving
        # reference still resolves, and no refcount underflows.
        for digest in doomed_only:
            assert storage.cas_page(digest) is None
        for digest in survivor_pages:
            assert storage.cas_page(digest) is not None
        assert all(refs >= 1 for refs in storage.cas.refs.values())
        assert verify_chain(storage, session.fsstore).ok

    def test_freed_bytes_show_up_in_accounting(self):
        _session, dejaview = record(SEEDS[2], 1)
        storage = dejaview.storage
        before = storage.total_compressed_bytes
        report = dejaview.thin_checkpoints(policy=POLICY, compact=True)
        assert report.image_bytes_freed > 0
        assert storage.total_compressed_bytes < before


class TestNeverThinned:
    #: Maximum aggression: no recent window, keep only every 8th.
    AGGRESSIVE = ThinningPolicy(recent_window_us=0, tiers=((None, 8),))

    def test_protect_and_newest_survive(self):
        _session, dejaview = record(SEEDS[0], 1)
        storage = dejaview.storage
        history = dejaview.engine.history
        newest = history[-1].checkpoint_id
        guarded = history[len(history) // 2].checkpoint_id
        report = dejaview.thin_checkpoints(policy=self.AGGRESSIVE,
                                           protect=(guarded,))
        assert report.thinned_images
        for survivor in (newest, guarded):
            assert survivor not in report.thinned_images
            assert survivor in storage
            assert not storage.is_thinned(survivor)

    def test_required_images_pin_survivor_chains(self):
        """A sweep over a working set larger than the per-unit write
        burst never supersedes earlier pages: survivors' page-location
        directories keep referencing the older incrementals, so those
        drops must be skipped (never a dangling page location), and the
        chain must verify afterwards."""
        session, dejaview = build_thin_session(seed=5)
        editor = session.launch("editor")
        editor.focus()
        editor.grow_memory(64 * 4096)
        for _ in range(10):
            editor.dirty_memory(2 * 4096)  # sweeps; never wraps
            dejaview.tick()
            session.clock.advance_us(seconds(1))
        report = dejaview.thin_checkpoints(policy=self.AGGRESSIVE)
        assert report.skipped_required
        storage = dejaview.storage
        for image_id in report.skipped_required:
            assert image_id in storage
            assert not storage.is_thinned(image_id)
        assert verify_chain(storage, session.fsstore).ok

    def test_rescued_candidates_keep_their_own_chains(self):
        """Regression: a candidate rescued because a survivor pages from
        it is itself a survivor, so the images *it* pages from must stay
        too (to a fixpoint).  On the 80-unit desktop the default policy
        once kept checkpoint 3 while thinning checkpoint 2, which 3
        pages from; every kept checkpoint must revive as itself."""
        from repro.replay.replayer import record_scenario

        dejaview = record_scenario("desktop", units=80).dejaview
        report = dejaview.thin_checkpoints()
        assert 3 in report.skipped_required
        storage = dejaview.storage
        kept = [r for r in dejaview.engine.history
                if not storage.is_thinned(r.checkpoint_id)]
        for entry in kept:
            image = storage.load(entry.checkpoint_id, cached=True)
            assert not any(storage.is_thinned(owner)
                           for owner in image.page_locations.values())
            revived = dejaview.take_me_back(entry.timestamp_us)
            assert revived.checkpoint_id == entry.checkpoint_id
            assert not revived.replayed
            dejaview.reviver.kernel.destroy_container(revived.container)
        assert verify_chain(storage, dejaview.session.fsstore).ok

    def test_unanchored_instants_survive(self):
        """With an anchor index that names nobody, nothing can be
        replay-verified — so nothing may be thinned."""
        _session, dejaview = record(SEEDS[1], 1)
        storage = dejaview.storage
        report = thin_checkpoints(
            storage, dejaview.engine.history, POLICY,
            dejaview.session.clock.now_us, anchors={})
        assert not report.thinned_images
        assert report.skipped_unanchored
        assert not storage.thinned_ids()

    def test_fleet_fork_points_and_last_good_anchor_survive(self):
        from repro.server import Fleet

        fleet = Fleet(seed=7)
        fleet.admit("p0", "web", units=6)
        fleet.run_to_completion()
        parent = fleet.member("p0")
        source = parent.dejaview.engine.history[2]
        fleet.revive("p0", checkpoint_id=source.checkpoint_id,
                     name="branch", scenario="make", units=2)
        fleet.run_to_completion()

        summary = fleet.thin(policy=self.AGGRESSIVE)
        assert "p0" in summary["sessions"]
        # The branch demand-pages its fork point: its bytes must stay.
        parent_storage = parent.dejaview.storage
        assert source.checkpoint_id in parent_storage
        assert not parent_storage.is_thinned(source.checkpoint_id)
        # Every member's last-good recovery anchor keeps its bytes too.
        for member in fleet.members():
            engine = member.dejaview.engine
            if engine is None or engine.last_checkpoint_id is None:
                continue
            storage = member.dejaview.storage
            assert engine.last_checkpoint_id in storage
            assert verify_chain(storage, member.session.fsstore).ok
        # The branch still revives off its (protected) source chain.
        branch = fleet.member("branch")
        revived = branch.dejaview.take_me_back(
            branch.session.clock.now_us)
        assert revived.container.live_processes()


class TestThinnedTakeMeBack:
    """Regression: the *Take me back* fallback scan must distinguish
    THINNED (replayable — revive through replay, no fallback) from
    torn/corrupt (skip to an earlier instant, count a fallback)."""

    AGGRESSIVE = ThinningPolicy(recent_window_us=seconds(2),
                                tiers=((None, 4),))

    def test_fully_thinned_middle_never_silently_falls_back(self):
        """With the middle of the timeline fully thinned, asking for a
        thinned instant's own moment must replay-revive exactly that
        instant — not quietly hand back a surviving neighbor."""
        _session, dejaview = record(SEEDS[0], 1)
        storage = dejaview.storage
        report = dejaview.thin_checkpoints(policy=self.AGGRESSIVE)
        thinned = report.thinned_images
        assert len(thinned) >= 2
        # The aggressive single tier drops runs of adjacent instants:
        # find a thinned instant whose predecessor is also thinned, so
        # a silent fallback would have a thinned neighbor to land on.
        ordered = [r.checkpoint_id for r in dejaview.engine.history]
        runs = [image_id for prev, image_id in zip(ordered, ordered[1:])
                if storage.is_thinned(prev) and storage.is_thinned(image_id)]
        assert runs, "policy produced no adjacent thinned instants"
        target = runs[0]
        timestamps = {r.checkpoint_id: r.timestamp_us
                      for r in dejaview.engine.history}
        fallbacks = dejaview.telemetry.metrics.counter("revive.fallbacks")
        before = fallbacks.value
        revived = dejaview.take_me_back(timestamps[target])
        assert revived.checkpoint_id == target
        assert revived.replayed
        assert fallbacks.value == before

    def test_torn_survivor_still_falls_back(self):
        """A torn (crash-damaged) candidate is *not* replayable: the
        scan must skip it with a fallback and land on an earlier
        instant, exactly as before thinning existed."""
        session, dejaview = record(SEEDS[1], 1)
        storage = dejaview.storage
        dejaview.thin_checkpoints(policy=self.AGGRESSIVE)
        newest = dejaview.engine.history[-1].checkpoint_id
        blob = storage._blobs[newest]
        storage._blobs[newest] = blob[:max(1, len(blob) // 3)]
        fallbacks = dejaview.telemetry.metrics.counter("revive.fallbacks")
        before = fallbacks.value
        revived = dejaview.take_me_back(session.clock.now_us)
        assert revived.checkpoint_id != newest
        assert fallbacks.value > before


# ---------------------------------------------------------------------- #
# Golden fixture: a pre-thinned recording's tombstone stream

def _golden_image(checkpoint_id):
    """One deterministic checkpoint image for the golden store."""
    image = CheckpointImage(
        checkpoint_id=checkpoint_id,
        timestamp_us=checkpoint_id * 1_000_000,
        container_name="desktop",
        parent_id=checkpoint_id - 1 if checkpoint_id > 1 else None,
        full=checkpoint_id == 1,
        fs_txn=checkpoint_id,
    )
    image.regions = {1: [{"start": 0x1000_0000, "npages": 4, "prot": 3,
                          "name": "heap"}]}
    for page in range(3):
        key = (1, 0x1000_0000, page)
        image.pages[key] = bytes([checkpoint_id * 16 + page]) * 64
        image.page_locations[key] = checkpoint_id
    return image


def golden_thin_store(page_store=True, thin=True):
    """Three deterministic images; the middle one thinned against the
    first (when ``thin``).  The same construction backs the committed
    ``thinned_v1.bin`` fixture — regenerate it by writing
    :func:`golden_thin_export` bytes."""
    storage = CheckpointStorage(page_store=page_store)
    for checkpoint_id in (1, 2, 3):
        storage.store(_golden_image(checkpoint_id), charge_time=False)
    if thin:
        storage.thin(2, anchor_id=1, timestamp_us=2_000_000,
                     framebuffer_sha1="f" * 40)
    return storage


def golden_thin_log(storage):
    """A minimal event-log segment anchoring the golden store's three
    instants (what a thinned revive would replay through)."""
    tap = RecordingTap(meta={"scenario": "golden-thin", "units": 3,
                             "name": "gold"})
    now = 0
    for checkpoint_id in (1, 2, 3):
        now = checkpoint_id * 1_000_000
        tap.clock(1_000_000, now)
        fingerprint = storage.blob_fingerprint(checkpoint_id) \
            if checkpoint_id in storage \
            else storage.tombstone_of(checkpoint_id)["checkpoint_fp"]
        tap.anchor(checkpoint_id, now, "f" * 40, fingerprint)
    tap.close(now)
    return tap.getvalue()


def golden_thin_export():
    intact = golden_thin_store(thin=False)
    thinned = golden_thin_store()
    return thinned.export_tombstones(
        log_data=golden_thin_log(intact))


def _fixture(name):
    with open(os.path.join(DATA_DIR, name), "rb") as handle:
        return handle.read()


class TestGoldenThinFixture:
    """The committed pre-thinned stream must stay readable forever, and
    today's writer must still produce it byte-identically."""

    EXPECTED_TOMBSTONE_KEYS = {"image_id", "anchor_id", "timestamp_us",
                               "checkpoint_fp", "framebuffer_sha1"}

    def test_fixture_parses(self):
        storage = CheckpointStorage()
        loaded, log_data = storage.import_tombstones(
            _fixture("thinned_v1.bin"))
        assert loaded == 1
        assert storage.thinned_ids() == [2]
        tombstone = storage.tombstone_of(2)
        assert set(tombstone) == self.EXPECTED_TOMBSTONE_KEYS
        assert tombstone["anchor_id"] == 1
        assert tombstone["framebuffer_sha1"] == "f" * 40
        # The embedded log segment parses and anchors all three instants.
        assert log_data is not None
        meta, _events, torn, _stopped = prepare_events(bytes(log_data))
        assert torn == 0
        assert meta["scenario"] == "golden-thin"
        assert anchor_ids(bytes(log_data)) == [1, 2, 3]

    def test_fixture_matches_current_serializer(self):
        assert golden_thin_export() == _fixture("thinned_v1.bin")

    def test_intact_image_wins_over_imported_tombstone(self):
        """A tombstone for an image the store still holds intact is not
        imported — exactly the reconcile rule."""
        storage = golden_thin_store(thin=False)
        loaded, _log = storage.import_tombstones(
            _fixture("thinned_v1.bin"))
        assert loaded == 0
        assert not storage.thinned_ids()
        assert 2 in storage

    @pytest.mark.parametrize("page_store", [True, False],
                             ids=["v3-manifests", "v2-blobs"])
    def test_tombstones_load_alongside_untombstoned_images(
            self, page_store):
        """Version compat: tombstone records coexist with untombstoned
        v3 (manifest) and v2 (whole-blob) images in the same store, and
        fsck keeps both sides verified."""
        storage = golden_thin_store(page_store=page_store, thin=False)
        storage.delete(2)  # the image whose tombstone the fixture holds
        loaded, _log = storage.import_tombstones(
            _fixture("thinned_v1.bin"))
        assert loaded == 1
        assert storage.is_thinned(2)
        report = storage.recover()
        assert report["verify_ok"], report
        # Reconcile kept the tombstone: anchor 1 is stored intact.
        assert storage.is_thinned(2)
        for checkpoint_id in (1, 3):
            assert checkpoint_id in storage
            assert storage.blob_ok(checkpoint_id)[0]
            restored = storage.load(checkpoint_id, cached=True,
                                    clock=None)
            assert restored.checkpoint_id == checkpoint_id
