"""Fleet service tests: admission, scheduling determinism, quotas,
shared-CAS accounting, fleet GC, and the multi-owner ShardedPageCAS
contract.

The byte-level isolation property (interleaved ≡ solo) lives in
``tests/test_fleet_isolation.py``; this file covers the service layer
itself.
"""

import zlib

import numpy as np
import pytest

from repro.checkpoint.storage import ShardedPageCAS
from repro.server import Fleet, FleetError, SessionQuotas
from repro.server.fleet import DONE, RUNNING, THROTTLED
from repro.workloads.fleet_wl import build_fleet, fleet_mix


def small_fleet(seed=0, **kwargs):
    fleet = Fleet(seed=seed, **kwargs)
    fleet.admit("a", "web", units=3)
    fleet.admit("b", "gzip", units=5)
    return fleet


class TestAdmission:
    def test_duplicate_name_rejected(self):
        fleet = small_fleet()
        with pytest.raises(FleetError):
            fleet.admit("a", "gzip", units=2)

    def test_fleet_full_rejected(self):
        fleet = Fleet(max_sessions=1)
        fleet.admit("only", "gzip", units=2)
        with pytest.raises(FleetError):
            fleet.admit("more", "gzip", units=2)
        assert fleet.telemetry.metrics.counter(
            "fleet.admissions_rejected").value == 1

    def test_bad_weight_rejected(self):
        fleet = Fleet()
        with pytest.raises(FleetError):
            fleet.admit("w", "gzip", units=2, weight=0)

    def test_members_admission_ordered(self):
        fleet = small_fleet()
        assert [m.name for m in fleet.members()] == ["a", "b"]
        assert len(fleet) == 2

    def test_unknown_member_raises(self):
        with pytest.raises(FleetError):
            small_fleet().member("nope")


class TestScheduler:
    def test_same_seed_same_interleaving(self):
        def trace(seed):
            fleet = small_fleet(seed=seed)
            order = []
            while True:
                member = fleet.step()
                if member is None:
                    break
                order.append(member.name)
            return order, fleet.clock.now_us

        order_a, clock_a = trace(42)
        order_b, clock_b = trace(42)
        assert order_a == order_b
        assert clock_a == clock_b

    def test_different_seed_may_reorder_but_completes(self):
        orders = set()
        for seed in (1, 2, 3, 4):
            fleet = small_fleet(seed=seed)
            order = []
            while fleet.runnable():
                order.append(fleet.step().name)
            assert {m.state for m in fleet.members()} == {DONE}
            orders.add(tuple(order))
        # Four seeds over an 8-step schedule: at least two interleavings.
        assert len(orders) > 1

    def test_service_clock_sums_member_activity(self):
        fleet = small_fleet(seed=9)
        starts = {m.name: m.session.clock.now_us for m in fleet.members()}
        fleet.run_to_completion()
        consumed = sum(m.session.clock.now_us - starts[m.name]
                       for m in fleet.members())
        assert fleet.clock.now_us == consumed > 0

    def test_step_with_nothing_runnable(self):
        fleet = small_fleet()
        fleet.run_to_completion()
        assert fleet.step() is None

    def test_max_steps_bound(self):
        fleet = small_fleet()
        assert fleet.run_to_completion(max_steps=3) == 3
        assert any(m.state == RUNNING for m in fleet.members())


class TestQuotas:
    def test_checkpoint_byte_quota_throttles(self):
        fleet = Fleet(seed=0)
        fleet.admit("fat", "web", units=4,
                    quotas=SessionQuotas(checkpoint_bytes=1024))
        fleet.admit("ok", "gzip", units=4)
        fleet.run_to_completion()
        fat = fleet.member("fat")
        assert fat.state == THROTTLED
        quota, used, limit = fat.quota_violation
        assert quota == "checkpoint_bytes"
        assert used > limit == 1024
        assert fat.units_done < fat.run.units
        assert fleet.member("ok").state == DONE
        info = fleet.stats()["sessions"]["fat"]
        assert info["quota_violation"]["quota"] == "checkpoint_bytes"

    def test_default_quotas_apply_to_every_member(self):
        fleet = Fleet(quotas=SessionQuotas(log_bytes=1))
        fleet.admit("a", "web", units=3)
        fleet.run_to_completion()
        assert fleet.member("a").state == THROTTLED

    def test_unquotad_sessions_run_to_done(self):
        fleet = small_fleet()
        fleet.run_to_completion()
        assert {m.state for m in fleet.members()} == {DONE}
        assert all(m.units_done == m.run.units for m in fleet.members())


class TestSharedCas:
    def test_identical_scenarios_dedup_across_sessions(self):
        fleet = Fleet(seed=3)
        fleet.admit("one", "web", units=3)
        fleet.admit("two", "web", units=3)
        fleet.run_to_completion()
        stats = fleet.stats()["cas"]
        assert stats["cross_pages_deduped"] > 0
        assert stats["cross_dedup_bytes_saved"] > 0
        # Two byte-identical page streams: every page is stored once and
        # referenced by both owners.
        assert stats["dedup_ratio"] == pytest.approx(0.5, abs=0.01)

    def test_physical_never_exceeds_sum_of_logical(self):
        fleet = build_fleet(4, seed=1)
        fleet.run_to_completion()
        logical = sum(
            fleet.cas.owner_logical_totals(m.dejaview.storage.owner)[0]
            for m in fleet.members())
        assert 0 < fleet.cas.total_uncompressed_bytes < logical

    def test_member_storage_reports_stay_owner_logical(self):
        """A member's own accounting must not see the sharing: its
        logical totals equal its manifests plus its referenced pages."""
        fleet = Fleet(seed=3)
        fleet.admit("one", "web", units=3)
        fleet.admit("two", "web", units=3)
        fleet.run_to_completion()
        for member in fleet.members():
            storage = member.dejaview.storage
            man_raw = sum(storage._manifest_sizes[i][0]
                          for i in storage.stored_ids())
            page_raw = fleet.cas.owner_logical_totals(storage.owner)[0]
            assert storage.total_uncompressed_bytes == man_raw + page_raw

    def test_fleet_gc_prunes_and_compacts(self):
        fleet = Fleet(seed=2)
        fleet.admit("one", "web", units=3)
        fleet.admit("two", "web", units=3)
        fleet.run_to_completion()
        pages_before = len(fleet.cas.sizes)
        report = fleet.gc(keep_last=1)
        assert set(report["sessions"]) == {"one", "two"}
        assert "bytes_reclaimed" in report["compaction"]
        assert len(fleet.cas.sizes) <= pages_before
        # Every surviving checkpoint still revives.
        for member in fleet.members():
            revived = member.dejaview.take_me_back(
                member.session.clock.now_us)
            assert revived.container.live_processes()

    def test_fleet_compaction_charges_service_clock_only(self):
        fleet = Fleet(seed=2)
        fleet.admit("one", "web", units=3)
        fleet.admit("two", "gzip", units=4)
        fleet.run_to_completion()
        # Orphan some pages: drop one owner's manifests wholesale so its
        # exclusive pages lose their last reference.
        storage = fleet.member("one").dejaview.storage
        for image_id in storage.stored_ids():
            storage.delete(image_id)
        clocks = {m.name: m.session.clock.now_us for m in fleet.members()}
        service_before = fleet.clock.now_us
        report = fleet.compact(dead_fraction=0.0)
        for member in fleet.members():
            assert member.session.clock.now_us == clocks[member.name]
        if report["extents_rewritten"]:
            assert fleet.clock.now_us > service_before


class TestFleetObservability:
    def test_stats_shape(self):
        fleet = small_fleet(seed=11)
        fleet.run_to_completion()
        stats = fleet.stats()
        assert stats["seed"] == 11
        assert set(stats["sessions"]) == {"a", "b"}
        for info in stats["sessions"].values():
            assert {"scenario", "state", "units_done", "units_total",
                    "weight", "clock_us", "checkpoints"} <= set(info)
        assert stats["cas"]["owners"] == ["a", "b"]
        assert 0.0 <= stats["cas"]["dedup_ratio"] < 1.0
        counters = stats["fleet_metrics"]["counters"]
        assert counters["fleet.steps"] == 3 + 5 + 2  # units + 2 DONE steps
        assert counters["fleet.sessions_admitted"] == 2
        assert counters["fleet.sessions_done"] == 2

    def test_rollup_sums_member_counters(self):
        fleet = small_fleet(seed=11)
        fleet.run_to_completion()
        rollup = fleet.stats()["rollup"]
        total_ticks = sum(
            m.dejaview.telemetry.metrics.counter("tick.count").value
            for m in fleet.members())
        assert rollup["counters"]["tick.count"] == total_ticks > 0
        down = rollup["histograms"].get("checkpoint.downtime_us")
        assert down and down["count"] > 0 and down["p95"] is not None


class TestFleetMix:
    def test_mix_repeats_scenarios(self):
        assert [s for s, _u in fleet_mix(4)] == ["web", "gzip"] * 2
        assert len({s for s, _u in fleet_mix(16)}) == 8
        mix16 = [s for s, _u in fleet_mix(16)]
        assert mix16[:8] == mix16[8:]

    def test_mix_rejects_empty(self):
        with pytest.raises(ValueError):
            fleet_mix(0)

    def test_units_scale(self):
        fleet = build_fleet(2, seed=0, units_scale=0.5)
        units = [m.run.units for m in fleet.members()]
        assert units == [max(1, u // 2) for _s, u in fleet_mix(2)]


class TestPageCasMultiOwner:
    """The refcount contract sharing rests on, exercised directly."""

    def _committed(self, cas, digest, payload):
        cas.commit_page(digest, payload, len(payload), len(payload) // 2,
                        mode=False)

    def test_unref_reclaims_only_at_global_zero(self):
        cas = ShardedPageCAS()
        self._committed(cas, b"d1", b"x" * 64)
        assert cas.add_ref("alice", b"d1") is True
        assert cas.add_ref("bob", b"d1") is True
        assert cas.add_ref("bob", b"d1") is False  # second ref, same owner
        assert cas.unref("alice", b"d1") == (True, False)
        assert b"d1" in cas.pages  # bob still holds it
        assert cas.unref("bob", b"d1") == (False, False)
        assert cas.unref("bob", b"d1") == (True, True)
        assert b"d1" not in cas.pages

    def test_rebuild_one_owner_never_touches_the_other(self):
        cas = ShardedPageCAS()
        for digest in (b"a", b"b", b"shared"):
            self._committed(cas, digest, digest * 32)
        cas.add_ref("alice", b"a")
        cas.add_ref("alice", b"shared")
        cas.add_ref("bob", b"b")
        cas.add_ref("bob", b"shared")
        # Alice crashed and lost everything: her rebuilt manifest set is
        # empty.  Only her exclusive page may go.
        reclaimed = cas.rebuild_owner_refs("alice", [])
        assert reclaimed == 1
        assert b"a" not in cas.pages
        assert b"b" in cas.pages and b"shared" in cas.pages
        assert cas.owner_refs["bob"] == {b"b": 1, b"shared": 1}
        assert cas.refs[b"shared"] == 1

    def test_owner_logical_totals(self):
        cas = ShardedPageCAS()
        self._committed(cas, b"p", b"y" * 100)
        cas.add_ref("alice", b"p")
        cas.add_ref("bob", b"p")
        assert cas.owner_logical_totals("alice") == (100, 50)
        assert cas.owner_logical_totals("bob") == (100, 50)
        assert cas.total_uncompressed_bytes == 100  # physical: once


class TestStableAppSeeding:
    """Regression: app RNGs must seed from a stable digest of the app
    name, not builtin ``hash`` (which varies with PYTHONHASHSEED across
    processes — and would break cross-session page dedup)."""

    PINNED_SEED = 3438408122  # zlib.crc32(b"editor")
    PINNED_FIRST_8 = "33175f42d7fe0e86"

    def test_editor_first_draw_is_pinned(self):
        from repro.desktop.session import DesktopSession

        session = DesktopSession(width=64, height=48)
        editor = session.launch("editor")
        assert editor._rng.bytes(8).hex() == self.PINNED_FIRST_8

    def test_seed_matches_crc32_of_name(self):
        assert zlib.crc32(b"editor") == self.PINNED_SEED
        rng = np.random.default_rng(self.PINNED_SEED)
        assert rng.bytes(8).hex() == self.PINNED_FIRST_8

    def test_same_name_same_stream_across_sessions(self):
        from repro.desktop.session import DesktopSession

        draws = []
        for _ in range(2):
            session = DesktopSession(width=64, height=48)
            app = session.launch("terminal")
            draws.append(app._rng.bytes(16))
        assert draws[0] == draws[1]
