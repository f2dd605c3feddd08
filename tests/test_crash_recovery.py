"""Crash-point sweep: crash at every registered failpoint, reopen, recover.

For each site in :func:`registered_failpoints` the sweep runs the scripted
desktop workload with a one-shot crash armed mid-drive, catches the
simulated host death, then reopens the same recorded state and runs
:meth:`DejaView.recover`.  Afterwards the surviving record must be fully
usable: the checkpoint chain verifies, playback completes end-to-end,
search answers without errors and returns a subset of the clean run's
results, and *Take me back* still revives.

An observer run (an empty :class:`FaultPlan` counts hits but never fires)
establishes per-site hit counts first, so each crash is armed at the
midpoint of the site's activity — inside the drive, not during session
construction.
"""

import pytest

from repro import Query
from repro.checkpoint.gc import ThinningPolicy
from repro.checkpoint.verify import verify_chain
from repro.common.units import seconds
from repro.common.faults import (
    FAILPOINTS,
    FaultPlan,
    FaultSpecError,
    InjectedCrash,
    InjectedFault,
    NULL_FAULTS,
    registered_failpoints,
    resolve_faults,
)

from tests.faulthelpers import (
    WORDS,
    assert_recovered_run_replays,
    build_session,
    drive,
    record_fault_matrix,
    summarize,
    thin_drive,
    thin_replay_driver_factory,
)

UNITS = 8

#: Failpoints that only a *fleet* exercise reaches (branch forks run
#: through :meth:`Fleet.revive`, never the solo desktop driver).  The
#: solo sweep below excludes them — its coverage assert would otherwise
#: demand the impossible — and :class:`TestBranchForkCrash` gives each a
#: dedicated row with the same recover-and-verify contract.
FLEET_ONLY_SITES = ("revive.branch.mount", "revive.branch.refs")

#: Failpoints inside the checkpoint-thinning pass.  The sweep driver
#: records but never thins, so these too get dedicated rows
#: (:class:`TestThinCrash`) instead of sweep parametrizations.
THIN_SITES = ("thin.drop_refs", "thin.tombstone")

SOLO_SITES = [site for site in registered_failpoints()
              if site not in FLEET_ONLY_SITES + THIN_SITES]


@pytest.fixture(scope="module")
def clean_run():
    """One clean drive observed by an empty fault plan.

    Yields per-site hit counts split into construction-time and
    drive-time, plus the clean record's comparable facts and per-word
    search result counts.
    """
    observer = FaultPlan()
    session, dejaview = build_session(fault_plan=observer)
    pre_drive = dict(observer.hits)
    drive(session, dejaview, units=UNITS)
    facts = summarize(session, dejaview)
    facts["search_counts"] = {
        word: len(dejaview.search(Query.keywords(word), render=False))
        for word in WORDS
    }
    return {
        "pre_drive": pre_drive,
        "total": dict(observer.hits),
        "facts": facts,
    }


class TestCrashSweep:
    @pytest.mark.parametrize("site", SOLO_SITES)
    def test_crash_then_recover(self, site, clean_run):
        pre = clean_run["pre_drive"].get(site, 0)
        total = clean_run["total"].get(site, 0)
        # Coverage guarantee: the driver must actually reach every
        # registered site during the drive, else the sweep proves nothing.
        assert total > pre, \
            "failpoint %s is never hit by the sweep driver" % site

        # Arm the crash at the midpoint of the site's drive-time activity
        # (strictly after construction, so the DejaView reference exists
        # to reopen).
        after = pre + max(1, (total - pre) // 2)
        plan = FaultPlan()
        rule = plan.add(site, mode="crash", after=after)

        holder = {}
        with pytest.raises(InjectedCrash):
            session, dejaview = build_session(fault_plan=plan)
            holder["session"] = session
            holder["dejaview"] = dejaview
            drive(session, dejaview, units=UNITS)
        assert rule.fired == 1
        session = holder["session"]
        dejaview = holder["dejaview"]

        # Reopen: recover every stream, then demand full usability.
        report = dejaview.recover()
        record_fault_matrix(plan)
        assert report["ok"], report

        chain = verify_chain(dejaview.storage, session.fsstore)
        assert chain.ok, chain.issues

        record = dejaview.display_record()
        engine = dejaview.playback_engine()
        framebuffer, _stats = engine.play(record.start_us, record.end_us,
                                          fastest=True)
        assert framebuffer is not None

        clean_counts = clean_run["facts"]["search_counts"]
        for word in WORDS:
            results = dejaview.search(Query.keywords(word), render=False)
            assert len(results) <= clean_counts[word]

        if dejaview.engine.history:
            revived = dejaview.take_me_back(session.clock.now_us)
            assert revived.container is not session.container

        # Replay-divergence oracle: re-run the script under a fresh copy
        # of the plan.  The replay crashes at the same site, and every
        # event before the recovery barrier re-derives bit-identically.
        replay_report = assert_recovered_run_replays(session, plan,
                                                     units=UNITS)
        assert replay_report.replay_crashed
        assert replay_report.crash_site == site


class TestReviveFallback:
    def test_torn_newest_checkpoint_falls_back(self):
        session, dejaview = build_session()
        drive(session, dejaview, units=4)
        history = dejaview.engine.history
        assert len(history) >= 2
        newest = history[-1].checkpoint_id
        # Tear the newest blob mid-frame, as a crash would.
        blob = dejaview.storage._blobs[newest]
        dejaview.storage._blobs[newest] = blob[:max(1, len(blob) // 3)]
        fallbacks = dejaview.telemetry.metrics.counter("revive.fallbacks")
        before = fallbacks.value
        revived = dejaview.take_me_back(session.clock.now_us)
        assert revived.container is not session.container
        assert fallbacks.value > before

    def test_blob_ok_flags_torn_and_corrupt(self):
        session, dejaview = build_session()
        drive(session, dejaview, units=2)
        image_id = dejaview.engine.history[-1].checkpoint_id
        ok, _reason = dejaview.storage.blob_ok(image_id)
        assert ok
        blob = dejaview.storage._blobs[image_id]
        dejaview.storage._blobs[image_id] = blob[:len(blob) // 2]
        ok, reason = dejaview.storage.blob_ok(image_id)
        assert not ok and reason
        # Bit-flip corruption (full length, bad checksum) is also caught.
        flipped = bytearray(blob)
        flipped[0] ^= 0xFF
        dejaview.storage._blobs[image_id] = bytes(flipped)
        ok, reason = dejaview.storage.blob_ok(image_id)
        assert not ok and "checksum" in reason


class TestCasCrashSemantics:
    """Targeted checks for the two page-store failpoints: the on-disk
    wreckage is exactly as advertised, and recovery cleans precisely it."""

    def _crash_at(self, site, clean_run):
        pre = clean_run["pre_drive"].get(site, 0)
        total = clean_run["total"].get(site, 0)
        after = pre + max(1, (total - pre) // 2)
        plan = FaultPlan()
        plan.add(site, mode="crash", after=after)
        holder = {}
        with pytest.raises(InjectedCrash):
            session, dejaview = build_session(fault_plan=plan)
            holder["session"] = session
            holder["dejaview"] = dejaview
            drive(session, dejaview, units=UNITS)
        return holder["session"], holder["dejaview"]

    def test_page_append_crash_reclaims_uncommitted_page(self, clean_run):
        session, dejaview = self._crash_at("storage.cas.page_append",
                                           clean_run)
        storage = dejaview.storage
        # The in-flight page is torn: present in the payload map but
        # never committed (no size entry, no refcount).
        torn = [digest for digest in storage.cas.pages
                if digest not in storage.cas.sizes]
        assert torn, "page-append crash left no torn payload"
        report = dejaview.recover()
        assert report["ok"], report
        assert report["storage"]["cas_pages_dropped"] >= 1
        # Nothing uncommitted or unreferenced survives.
        assert all(digest in storage.cas.sizes for digest in storage.cas.pages)
        assert all(refs >= 1 for refs in storage.cas.refs.values())
        assert verify_chain(storage, session.fsstore).ok
        if dejaview.engine.history:
            revived = dejaview.take_me_back(session.clock.now_us)
            assert revived.container is not session.container

    def test_manifest_commit_crash_strands_then_reclaims_orphans(
            self, clean_run):
        session, dejaview = self._crash_at("storage.cas.manifest_commit",
                                           clean_run)
        storage = dejaview.storage
        # Every page of the in-flight store committed, but the manifest
        # never did: the pages sit in the CAS with zero references.
        orphans = [digest for digest, refs in storage.cas.refs.items()
                   if refs == 0]
        assert orphans, "manifest-commit crash left no orphaned pages"
        report = dejaview.recover()
        assert report["ok"], report
        assert report["storage"]["cas_orphans_reclaimed"] >= len(orphans)
        assert all(refs >= 1 for refs in storage.cas.refs.values())
        for digest in orphans:
            assert storage.cas_page(digest) is None
        assert verify_chain(storage, session.fsstore).ok
        if dejaview.engine.history:
            revived = dejaview.take_me_back(session.clock.now_us)
            assert revived.container is not session.container

    def test_dangling_manifest_dropped_on_recover(self):
        """A manifest whose digest no longer resolves (lost page) cannot
        revive; recover drops the image rather than leaving a landmine."""
        session, dejaview = build_session()
        drive(session, dejaview, units=4)
        storage = dejaview.storage
        victim = dejaview.engine.history[-1].checkpoint_id
        digests = storage.manifest_digests(victim)
        assert digests, "driver checkpoints should carry pages"
        # Lose one referenced payload outright (bit-rot / lost sector).
        del storage.cas.pages[digests[0]]
        report = storage.recover(fsstore=session.fsstore)
        assert victim in report["manifest_dropped"] \
            or victim in report["chain_dropped"]
        assert victim not in storage
        assert report["verify_ok"]

    def test_corrupt_cas_payload_dropped_and_manifest_pruned(self):
        session, dejaview = build_session()
        drive(session, dejaview, units=4)
        storage = dejaview.storage
        victim = dejaview.engine.history[-1].checkpoint_id
        digests = storage.manifest_digests(victim)
        assert digests
        # Flip a byte: the payload no longer hashes to its address.
        payload = bytearray(storage.cas.pages[digests[0]])
        payload[0] ^= 0xFF
        storage.cas.pages[digests[0]] = bytes(payload)
        report = storage.recover(fsstore=session.fsstore)
        assert report["cas_pages_dropped"] >= 1
        assert victim not in storage
        assert report["verify_ok"]


class TestFaultPlanUnit:
    def test_registered_failpoints_sorted_and_documented(self):
        sites = registered_failpoints()
        assert sites == sorted(sites)
        assert all(FAILPOINTS[site] for site in sites)

    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "lfs.append.mid_block:after=3;"
            "recorder.log.append:mode=io,p=0.25,repeat"
        )
        assert len(plan.rules) == 2
        first, second = plan.rules
        assert (first.site, first.mode, first.after) == \
            ("lfs.append.mid_block", "crash", 3)
        assert (second.site, second.mode, second.once) == \
            ("recorder.log.append", "io", False)
        assert second.probability == 0.25

    def test_parse_rejects_unknown_site(self):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse("no.such.site")

    def test_parse_rejects_unknown_option(self):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse("lfs.append.mid_block:bogus=1")

    def test_rule_validation(self):
        plan = FaultPlan()
        with pytest.raises(FaultSpecError):
            plan.add("lfs.append.mid_block", mode="explode")
        with pytest.raises(FaultSpecError):
            plan.add("lfs.append.mid_block", after=0)
        with pytest.raises(FaultSpecError):
            plan.add("lfs.append.mid_block", probability=0.0)

    def test_after_counts_eligible_hits(self):
        plan = FaultPlan()
        plan.add("recorder.log.append", mode="io", after=3)
        plan.check("recorder.log.append")
        plan.check("recorder.log.append")
        with pytest.raises(InjectedFault):
            plan.check("recorder.log.append")
        # once=True: no further fires.
        plan.check("recorder.log.append")
        assert plan.fired("recorder.log.append") == 1
        assert plan.hits["recorder.log.append"] == 4

    def test_probability_is_deterministic_under_seed(self):
        def fire_pattern(seed):
            plan = FaultPlan(seed=seed)
            plan.add("recorder.log.append", mode="io", probability=0.5,
                     once=False)
            pattern = []
            for _ in range(32):
                try:
                    plan.check("recorder.log.append")
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        assert fire_pattern(7) == fire_pattern(7)
        assert any(fire_pattern(7))
        assert not all(fire_pattern(7))

    def test_null_plan_is_inert(self):
        assert resolve_faults(None) is NULL_FAULTS
        assert not NULL_FAULTS.active
        assert not NULL_FAULTS
        assert NULL_FAULTS.check("storage.store.pre_commit") is None
        assert NULL_FAULTS.hit_snapshot() == {}

    def test_hit_snapshot_covers_every_site(self):
        plan = FaultPlan()
        plan.check("lfs.append.mid_block")
        snap = plan.hit_snapshot()
        assert sorted(snap) == registered_failpoints()
        assert snap["lfs.append.mid_block"] == {"hits": 1, "fired": 0}
        assert snap["storage.store.pre_commit"] == {"hits": 0, "fired": 0}

    def test_injected_crash_escapes_blanket_except(self):
        plan = FaultPlan()
        plan.add("storage.store.pre_commit", mode="crash")
        with pytest.raises(InjectedCrash):
            try:
                plan.check("storage.store.pre_commit")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("InjectedCrash must not be an Exception")


class TestFleetSharedCasCrash:
    """One fleet member crashing at each storage failpoint: its
    owner-scoped recovery reaches a verified fixpoint, and the peer
    sharing the page store stays fully revivable — no shared page is ever
    reclaimed out from under a healthy owner."""

    # (site, armed hit) — pre_commit fires once per store, the CAS sites
    # fire per page, so the page-level sites need a deeper hit count to
    # land mid-checkpoint rather than on the first page.
    CASES = [
        ("storage.store.pre_commit", 2),
        ("storage.cas.page_append", 40),
        ("storage.cas.manifest_commit", 2),
    ]

    def _fleet_crash(self, site, after, seed=5):
        from repro.server import Fleet

        plan = FaultPlan()
        plan.add(site, mode="crash", after=after)
        fleet = Fleet(seed=seed)
        # Heavy weight: the victim runs ahead, so it is the owner that
        # physically commits the shared pages (guaranteeing its CAS
        # failpoints actually fire) — and the peer's later identical
        # stores *reference pages the victim committed*, which is exactly
        # the state its recovery must never reclaim.
        fleet.admit("victim", "web", units=3, fault_plan=plan, weight=16)
        fleet.admit("peer", "web", units=3)
        fleet.run_to_completion()
        return fleet

    @pytest.mark.parametrize("site,after", CASES)
    def test_owner_scoped_recovery_spares_the_peer(self, site, after):
        fleet = self._fleet_crash(site, after)
        victim = fleet.member("victim")
        peer = fleet.member("peer")
        assert victim.state == "crashed"
        assert victim.crash_site == site
        assert peer.state == "done"

        peer_storage = peer.dejaview.storage
        peer_manifests = {
            image_id: peer_storage.manifest_digests(image_id)
            for image_id in peer_storage.stored_ids()
        }
        peer_totals = (peer_storage.total_uncompressed_bytes,
                       peer_storage.total_compressed_bytes)

        report = fleet.recover_session("victim")
        assert report["storage"]["verify_ok"], report["storage"]

        # Fixpoint: recovering again drops nothing further.
        again = fleet.recover_session("victim")["storage"]
        assert again["verify_ok"]
        assert not again["torn_dropped"] and not again["chain_dropped"]
        assert again["cas_orphans_reclaimed"] == 0

        # The peer's view of the shared store is untouched: manifests,
        # payload resolution, and its owner-logical accounting.
        assert {
            image_id: peer_storage.manifest_digests(image_id)
            for image_id in peer_storage.stored_ids()
        } == peer_manifests
        for digests in peer_manifests.values():
            for digest in digests:
                assert fleet.cas.pages.get(digest) is not None
        assert (peer_storage.total_uncompressed_bytes,
                peer_storage.total_compressed_bytes) == peer_totals

        # Global refcounts are exactly the sum over owners.
        totals = {}
        for refs in fleet.cas.owner_refs.values():
            for digest, count in refs.items():
                totals[digest] = totals.get(digest, 0) + count
        live = {digest: count
                for digest, count in fleet.cas.refs.items() if count}
        assert totals == live

        # The peer stays end-to-end usable.
        assert verify_chain(peer_storage, peer.session.fsstore).ok
        revived = peer.dejaview.take_me_back(peer.session.clock.now_us)
        assert revived.container.live_processes()

    def test_victim_survivors_stay_revivable(self):
        """Whatever checkpoints the victim stored before the crash remain
        revivable after recovery (the fallback chain holds)."""
        fleet = self._fleet_crash("storage.cas.manifest_commit", after=2)
        victim = fleet.member("victim")
        fleet.recover_session("victim")
        storage = victim.dejaview.storage
        if victim.dejaview.engine.history and len(storage):
            revived = victim.dejaview.take_me_back(
                victim.session.clock.now_us)
            assert revived.container.live_processes()


class TestBranchForkCrash:
    """The two fleet-only failpoints: a branch killed mid-fork — during
    the union mount (``revive.branch.mount``) or halfway through pinning
    the source manifests (``revive.branch.refs``) — must be reclaimed by
    :meth:`Fleet.recover_session` without orphaning CAS refs and without
    perturbing the parent or a healthy sibling branch."""

    def _storm(self, seed=9):
        from repro.server import Fleet

        fleet = Fleet(seed=seed)
        fleet.admit("p0", "web", units=6)
        fleet.run_to_completion()
        source = fleet.member("p0").dejaview.engine.history[-1]
        fleet.revive("p0", checkpoint_id=source.checkpoint_id,
                     name="sib", scenario="make", units=2)
        fleet.run_to_completion()
        return fleet, source

    def _cas_snapshot(self, fleet):
        return (
            {digest: count for digest, count in fleet.cas.refs.items()
             if count},
            {owner: dict(refs)
             for owner, refs in fleet.cas.owner_refs.items() if refs},
            set(fleet.cas.pages),
        )

    @pytest.mark.parametrize("site", FLEET_ONLY_SITES)
    def test_fork_crash_reclaims_without_touching_siblings(self, site):
        from repro.server.fleet import CRASHED

        fleet, source = self._storm()
        parent = fleet.member("p0")
        sibling = fleet.member("sib")
        parent_refs = dict(fleet.cas.owner_refs.get("p0", {}))
        sibling_refs = dict(fleet.cas.owner_refs.get("sib", {}))

        plan = FaultPlan()
        rule = plan.add(site, mode="crash")
        with pytest.raises(InjectedCrash):
            fleet.revive("p0", checkpoint_id=source.checkpoint_id,
                         name="doomed", scenario="untar", units=2,
                         fault_plan=plan)
        record_fault_matrix(plan)
        assert rule.fired == 1
        doomed = fleet.member("doomed")
        assert doomed.state == CRASHED
        assert doomed.crash_site == site

        report = fleet.recover_session("doomed")
        assert report["ok"], report
        # No orphaned refs under the dead branch's owner.
        assert not fleet.cas.owner_refs.get("doomed")

        # fsck fixpoint: a second recovery finds nothing left to fix.
        snapshot = self._cas_snapshot(fleet)
        again = fleet.recover_session("doomed")
        assert again["ok"], again
        assert self._cas_snapshot(fleet) == snapshot

        # Parent and sibling: refcounts byte-identical, chains verify,
        # and both still revive.
        assert dict(fleet.cas.owner_refs.get("p0", {})) == parent_refs
        assert dict(fleet.cas.owner_refs.get("sib", {})) == sibling_refs
        assert verify_chain(parent.dejaview.storage,
                            parent.session.fsstore).ok
        assert verify_chain(sibling.dejaview.storage,
                            sibling.session.fsstore).ok
        revived = parent.dejaview.take_me_back(parent.session.clock.now_us)
        assert revived.container.live_processes()


class TestThinCrash:
    """Dedicated rows for the two thinning failpoints: a crash while
    committing a THINNED tombstone (``thin.tombstone``) or halfway
    through dropping the thinned image's page refs (``thin.drop_refs``)
    must recover to a verified fixpoint, a re-run of the same pass must
    converge on the same survivors as a crash-free pass, and every
    tombstoned instant must still replay-revive afterwards."""

    UNITS = 12
    POLICY = ThinningPolicy(recent_window_us=seconds(2),
                            tiers=((None, 2),))

    def _record(self, fault_plan=None):
        session, dejaview = build_session(fault_plan=fault_plan)
        thin_drive(session, dejaview, units=self.UNITS)
        return session, dejaview

    @pytest.fixture(scope="class")
    def control(self):
        """A crash-free pass over the identical timeline: the thinned
        set every faulted run must converge to."""
        _session, dejaview = self._record()
        report = dejaview.thin_checkpoints(policy=self.POLICY)
        assert report.thinned_images, \
            "thin_drive produced no thinnable instants"
        return report

    @pytest.mark.parametrize("site", THIN_SITES)
    def test_crash_mid_thin_recovers_and_converges(self, site, control):
        plan = FaultPlan()
        rule = plan.add(site, mode="crash")
        session, dejaview = self._record(fault_plan=plan)
        history_ids = [r.checkpoint_id for r in dejaview.engine.history]
        with pytest.raises(InjectedCrash):
            dejaview.thin_checkpoints(policy=self.POLICY)
        record_fault_matrix(plan)
        assert rule.fired == 1
        storage = dejaview.storage

        # Site semantics: the tombstone commit is the atom.  A crash
        # *before* it (thin.tombstone fires on the first target) leaves
        # the image fully intact and no tombstone; a crash after it
        # (thin.drop_refs, mid-unref) leaves exactly one tombstone with
        # the image bytes gone.
        if site == "thin.tombstone":
            assert not storage.thinned_ids()
        else:
            assert len(storage.thinned_ids()) == 1
            (victim,) = storage.thinned_ids()
            assert victim == control.thinned_images[0]
            assert victim not in storage

        report = dejaview.recover()
        assert report["ok"], report
        # Fixpoint: recovering again finds nothing further to fix.
        again = dejaview.recover()
        assert again["ok"]
        assert not again["storage"]["torn_dropped"]
        assert not again["storage"]["chain_dropped"]
        assert again["storage"]["cas_orphans_reclaimed"] == 0
        assert not again["storage"].get("tombstones_dropped", ())

        # The timeline survives whole: every instant is stored or
        # tombstoned, never silently gone.
        assert [r.checkpoint_id for r in dejaview.engine.history] \
            == history_ids
        for checkpoint_id in history_ids:
            assert checkpoint_id in storage \
                or storage.is_thinned(checkpoint_id)
        chain = verify_chain(storage, session.fsstore)
        assert chain.ok, chain.issues

        # The interrupted pass completes idempotently and converges on
        # the crash-free survivors (tier positions count the full
        # timeline, tombstones included).
        dejaview.thin_checkpoints(policy=self.POLICY)
        assert tuple(sorted(storage.thinned_ids())) \
            == tuple(sorted(control.thinned_images))
        rerun = dejaview.thin_checkpoints(policy=self.POLICY)
        assert not rerun.thinned_images

        # The clean recording replays end-to-end (the crash hit the
        # thinning pass, not the recorded timeline), and a thinned
        # instant still revives bit-identically through replay.
        from repro.replay import assert_replays_clean

        factory = thin_replay_driver_factory(units=self.UNITS)
        assert_replays_clean(session.replay.getvalue(),
                             driver=factory(None, {}))
        dejaview.reviver.replay_driver_factory = factory
        timestamps = {r.checkpoint_id: r.timestamp_us
                      for r in dejaview.engine.history}
        target = control.thinned_images[-1]
        fallbacks = dejaview.telemetry.metrics.counter("revive.fallbacks")
        before = fallbacks.value
        revived = dejaview.take_me_back(timestamps[target])
        assert revived.checkpoint_id == target
        assert revived.replayed
        assert fallbacks.value == before
