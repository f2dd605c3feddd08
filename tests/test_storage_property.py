"""Property-based invariants for the content-addressed page store.

Random interleavings of store/delete/prune/compact are checked against
brute-force oracles recomputed from a shadow model after every step:

* **reachability** — every live checkpoint's pages load back exactly;
* **refcounts** — each CAS entry's refcount equals the number of
  (image, key) references across live manifests, recomputed from the
  model's page contents;
* **accounting** — the storage totals equal the sum over live manifest
  blobs plus live CAS entries (recomputed from the per-entry tables, not
  the incremental counters);
* **no orphan survives compaction** — after ``compact()`` every CAS
  payload is referenced at least once.

The suite runs under three seeds; the CI fault-matrix job varies the
third via ``FAULT_SEED`` so every CI run explores fresh interleavings.
"""

import os
import random

import pytest

from repro.common.clock import VirtualClock
from repro.common.costs import PAGE_SIZE
from repro.common.errors import CheckpointError
from repro.checkpoint.engine import EngineOptions
from repro.checkpoint.gc import prune_checkpoints
from repro.checkpoint.image import CheckpointImage, page_digest
from repro.checkpoint.storage import CheckpointStorage, ShardedPageCAS
from repro.checkpoint.verify import verify_chain
from tests.test_checkpoint_engine import make_rig

SEEDS = [13, 2024, int(os.environ.get("FAULT_SEED", "7"))]


def _payload(rng, pool):
    """A page payload: frequently one from the shared pool (dedup bait),
    sometimes fresh content that joins the pool."""
    if pool and rng.random() < 0.6:
        return rng.choice(pool)
    content = bytes(rng.getrandbits(8) for _ in range(64)) + bytes(192)
    pool.append(content)
    return content


def _make_image(image_id, rng, pool):
    """A self-contained full image with 1-6 pages (full images keep the
    chain verifier happy under arbitrary deletions)."""
    image = CheckpointImage(image_id, timestamp_us=image_id * 1000,
                            container_name="prop", full=True)
    image.regions = {1: [{"start": 0x1000_0000, "npages": 64, "prot": 3,
                          "name": "heap"}]}
    for page in range(rng.randint(1, 6)):
        key = (1, 0x1000_0000, page)
        image.pages[key] = _payload(rng, pool)
        image.page_locations[key] = image_id
    return image


class TestStorageInvariants:
    """Direct-storage interleavings of store/delete/compact/recover."""

    def check_invariants(self, storage, model):
        # Reachability: every live image's pages load back exactly.
        for image_id, pages in model.items():
            loaded = storage.load(image_id, cached=True)
            assert loaded.pages == pages, \
                "image %d pages drifted" % image_id
        # Refcounts: recomputed brute-force from the model's contents.
        expected_refs = {}
        for pages in model.values():
            for content in pages.values():
                digest = page_digest(content)
                expected_refs[digest] = expected_refs.get(digest, 0) + 1
        entries = storage.cas_entries()
        assert {d: e["refs"] for d, e in entries.items()} == expected_refs
        # Every payload map entry is a committed, referenced entry.
        assert set(storage.cas.pages) == set(entries)
        # Accounting: totals equal the sum over live per-entry tables.
        expected_raw = sum(raw for raw, _comp
                           in storage._manifest_sizes.values())
        expected_comp = sum(comp for _raw, comp
                            in storage._manifest_sizes.values())
        expected_raw += sum(e["uncompressed"] for e in entries.values())
        expected_comp += sum(e["compressed"] for e in entries.values())
        assert storage.total_uncompressed_bytes == expected_raw
        assert storage.total_compressed_bytes == expected_comp

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_interleaving(self, seed):
        rng = random.Random(seed)
        storage = CheckpointStorage(clock=VirtualClock())
        model = {}
        pool = []
        next_id = 1
        for _step in range(120):
            op = rng.random()
            if op < 0.45 or not model:
                image = _make_image(next_id, rng, pool)
                receipt = storage.store(image, charge_time=False)
                assert receipt.pages_stored + receipt.pages_deduped == \
                    len(image.pages)
                model[next_id] = dict(image.pages)
                next_id += 1
            elif op < 0.75:
                victim = rng.choice(sorted(model))
                freed = storage.delete(victim)
                assert freed >= 0
                del model[victim]
                with pytest.raises(CheckpointError):
                    storage.load(victim)
            elif op < 0.90:
                report = storage.compact(charge_time=False)
                assert report["orphans_reclaimed"] == 0  # nothing leaks
                entries = storage.cas_entries()
                assert all(e["refs"] >= 1 for e in entries.values())
            else:
                report = storage.recover()
                assert report["verify_ok"]
                assert sorted(model) == storage.stored_ids()
            if rng.random() < 0.25:
                self.check_invariants(storage, model)
        self.check_invariants(storage, model)
        # Drain everything: the store must return to empty.
        for image_id in sorted(model):
            storage.delete(image_id)
        storage.compact(charge_time=False)
        assert storage.cas_entries() == {}
        assert storage.cas.pages == {}
        assert storage.total_uncompressed_bytes == 0
        assert storage.total_compressed_bytes == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dedup_counters_match_model(self, seed):
        rng = random.Random(seed)
        storage = CheckpointStorage(clock=VirtualClock())
        pool = []
        stored_digests = set()
        expected_dedup = 0
        for image_id in range(1, 30):
            image = _make_image(image_id, rng, pool)
            seen_in_image = set()
            for content in image.pages.values():
                digest = page_digest(content)
                # A repeat within one image is a dedup hit too: only the
                # first occurrence writes a payload.
                if digest in stored_digests or digest in seen_in_image:
                    expected_dedup += 1
                else:
                    seen_in_image.add(digest)
            receipt = storage.store(image, charge_time=False)
            stored_digests.update(page_digest(c)
                                  for c in image.pages.values())
            assert receipt.pages_deduped >= 0
        assert storage.pages_deduped == expected_dedup
        if expected_dedup:
            assert storage.dedup_bytes_saved > 0


class TestAccountingModeSnapshot:
    """Regression: the accounted mode is snapshotted at store time, so
    toggling ``compress`` between ``store()`` and ``delete()`` can no
    longer drift the books (the old code read ``self.compress`` at
    delete time)."""

    @pytest.mark.parametrize("page_store", [True, False])
    def test_freed_bytes_match_store_time_accounting(self, page_store):
        storage = CheckpointStorage(clock=VirtualClock(), compress=False,
                                    page_store=page_store)
        rng = random.Random(5)
        image = _make_image(1, rng, pool=[])
        receipt = storage.store(image, charge_time=False)
        # Operator flips the accounting mode mid-run.
        storage.compress = True
        freed = storage.delete(1)
        assert freed == receipt.accounted_bytes
        storage.compact(charge_time=False)
        assert storage.total_uncompressed_bytes == 0
        assert storage.total_compressed_bytes == 0

    @pytest.mark.parametrize("page_store", [True, False])
    def test_toggle_both_directions_drains_to_zero(self, page_store):
        storage = CheckpointStorage(clock=VirtualClock(), compress=True,
                                    page_store=page_store)
        rng = random.Random(9)
        pool = []
        receipts = {}
        for image_id in (1, 2, 3):
            image = _make_image(image_id, rng, pool)
            receipts[image_id] = storage.store(image, charge_time=False)
            storage.compress = not storage.compress
        # Deletion order differs from store order; every blob and page is
        # freed under whatever mode it was stored with.
        for image_id in (2, 1, 3):
            assert storage.delete(image_id) >= 0
        storage.compact(charge_time=False)
        assert storage.cas_entries() == {}
        assert storage.total_uncompressed_bytes == 0
        assert storage.total_compressed_bytes == 0


class TestEngineInterleaving:
    """Checkpoint/prune/compact through the real engine and GC."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_checkpoint_prune_compact_interleaving(self, seed):
        rng = random.Random(seed)
        options = EngineOptions(full_checkpoint_interval=5)
        kernel, _container, fsstore, storage, engine, procs = make_rig(
            options, nprocs=2, pages_per_proc=4)
        for _round in range(8):
            for _ in range(rng.randint(1, 4)):
                proc = rng.choice(procs)
                region = proc.address_space.regions()[0]
                page = rng.randrange(region.npages)
                proc.address_space.write(
                    region.start + page * PAGE_SIZE,
                    bytes(rng.getrandbits(8) for _ in range(32)),
                )
                engine.checkpoint()
            stored = storage.stored_ids()
            if len(stored) > 3 and rng.random() < 0.7:
                keep = set(rng.sample(stored, rng.randint(1, 3)))
                keep.add(stored[-1])  # never drop the live head
                # Close the keep set over the owner relation so every
                # surviving image's own page directory stays resolvable
                # (donor images kept for their pages may reference even
                # older donors).
                while True:
                    owners = set()
                    for image_id in keep:
                        image = storage.load(image_id, cached=True)
                        owners.update(image.page_locations.values())
                    if owners <= keep:
                        break
                    keep |= owners
                report = prune_checkpoints(storage, fsstore, sorted(keep))
                assert set(report.deleted_images).isdisjoint(
                    report.kept_images)
                # Compaction ran inside the prune; no orphans survive.
                assert all(e["refs"] >= 1
                           for e in storage.cas_entries().values())
            verdict = verify_chain(storage, fsstore)
            assert verdict.ok, [str(issue) for issue in verdict.issues]
            # Reachability through the chain: the latest checkpoint's
            # page-location directory must fully resolve.
            latest = storage.stored_ids()[-1]
            image = storage.load(latest, cached=True)
            for key, owner_id in image.page_locations.items():
                owner = storage.load(owner_id, cached=True)
                assert key in owner.pages


class TestShardedLayout:
    """Sharding is a *physical* layout choice: every shard count yields
    the same logical state (payloads, refcounts, totals), extents only
    ever hold digests of their own shard, and a shard-count change on
    reopen (``reshard``) is invisible to readers — v3 manifests name
    digests, never extents."""

    SHARD_COUNTS = [1, 2, 4, 8]

    @staticmethod
    def _logical_state(storage):
        cas = storage.cas
        return (
            dict(cas.pages),
            dict(cas.sizes),
            dict(cas.refs),
            {owner: dict(refs)
             for owner, refs in cas.owner_refs.items()},
            cas.total_uncompressed_bytes,
            cas.total_compressed_bytes,
        )

    @staticmethod
    def _drive(storage, seed, steps=60):
        rng = random.Random(seed)
        model = {}
        pool = []
        next_id = 1
        for _step in range(steps):
            op = rng.random()
            if op < 0.55 or not model:
                image = _make_image(next_id, rng, pool)
                storage.store(image, charge_time=False)
                model[next_id] = dict(image.pages)
                next_id += 1
            elif op < 0.8:
                victim = rng.choice(sorted(model))
                storage.delete(victim)
                del model[victim]
            else:
                storage.compact(charge_time=False)
        return model

    def _check_placement(self, cas):
        """Every committed digest sits in an extent tagged with its own
        consistent-hash shard."""
        for digest, eid in cas.extent_of.items():
            extent = cas.extents[eid]
            assert extent.shard == cas.shard_of(digest), \
                "digest %s landed on shard %d, hashes to %d" % (
                    digest.hex()[:12], extent.shard, cas.shard_of(digest))
            assert digest in extent.digests

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_logical_state_is_shard_count_invariant(self, seed, shards):
        baseline = CheckpointStorage(clock=VirtualClock(), shards=1)
        sharded = CheckpointStorage(clock=VirtualClock(), shards=shards)
        model_a = self._drive(baseline, seed)
        model_b = self._drive(sharded, seed)
        assert model_a == model_b
        assert self._logical_state(baseline) == self._logical_state(sharded)
        assert baseline.cas_entries() == sharded.cas_entries()
        self._check_placement(sharded.cas)
        # Readers see identical bytes regardless of physical layout.
        for image_id, pages in model_b.items():
            assert sharded.load(image_id, cached=True).pages == pages

    @pytest.mark.parametrize("reopen_shards", [2, 4, 8])
    def test_reshard_preserves_logical_state(self, reopen_shards):
        storage = CheckpointStorage(clock=VirtualClock(), shards=1)
        model = self._drive(storage, seed=SEEDS[0])
        before = self._logical_state(storage)
        cas = storage.cas
        cas.reshard(reopen_shards)
        assert cas.shard_count == reopen_shards
        assert self._logical_state(storage) == before
        assert set(cas.extent_of) == set(cas.sizes)
        self._check_placement(cas)
        for image_id, pages in model.items():
            assert storage.load(image_id, cached=True).pages == pages
        # And back down to one shard: still lossless.
        cas.reshard(1)
        assert self._logical_state(storage) == before
        for image_id, pages in model.items():
            assert storage.load(image_id, cached=True).pages == pages

    def test_async_store_queues_then_drain_flushes(self):
        cas = ShardedPageCAS(shards=4, async_writeback=True)
        storage = CheckpointStorage(clock=VirtualClock(), cas=cas)
        rng = random.Random(SEEDS[0])
        pool = []
        image = _make_image(1, rng, pool)
        storage.store(image, charge_time=False)
        assert storage.cas.async_writeback
        assert storage.writeback_backlog_bytes > 0
        assert cas.backlog_pages() > 0
        # Queued pages are fully readable: logical commit is immediate.
        assert storage.load(1, cached=True).pages == dict(image.pages)
        assert cas.unflushed_digests()
        report = storage.drain_writeback()
        assert report["pages"] > 0 and report["bytes"] > 0
        assert storage.writeback_backlog_bytes == 0
        assert cas.backlog_pages() == 0
        assert set(cas.extent_of) == set(cas.sizes)
        self._check_placement(cas)

    def test_compact_drains_pending_appends_first(self):
        """Regression (satellite): compaction must never rewrite an
        extent while appends for its shard are still queued — compact()
        drains everything before touching extents."""
        cas = ShardedPageCAS(shards=2, async_writeback=True)
        storage = CheckpointStorage(clock=VirtualClock(), cas=cas)
        rng = random.Random(SEEDS[1])
        pool = []
        for image_id in (1, 2, 3):
            storage.store(_make_image(image_id, rng, pool),
                          charge_time=False)
        storage.delete(2)  # make some dead bytes worth compacting
        assert cas.backlog_pages() > 0  # appends still in flight
        report = storage.compact(charge_time=False)
        assert report["drained_pages"] > 0
        assert cas.backlog_pages() == 0
        assert cas.backlog_bytes() == 0
        # Post-compaction: every committed digest physically placed.
        assert set(cas.extent_of) == set(cas.sizes)
        self._check_placement(cas)
        for image_id in (1, 3):
            assert storage.load(image_id, cached=True) is not None

    def test_delete_cancels_queued_appends(self):
        """Regression (satellite): deleting an image whose pages are
        still queued cancels the pending appends in place — no stale
        payload ever reaches an extent, and a later flush writes only
        surviving pages."""
        cas = ShardedPageCAS(shards=2, async_writeback=True)
        storage = CheckpointStorage(clock=VirtualClock(), cas=cas)
        rng = random.Random(SEEDS[2])
        pool = []
        image = _make_image(1, rng, pool)
        storage.store(image, charge_time=False)
        queued_before = cas.backlog_pages()
        assert queued_before > 0
        storage.delete(1)
        assert cas.backlog_pages() == 0  # every queued append cancelled
        assert cas.backlog_bytes() == 0
        report = storage.drain_writeback()
        assert report["pages"] == 0  # nothing stale left to write
        assert cas.pages == {} and cas.extent_of == {}
        assert storage.total_uncompressed_bytes == 0

    def test_sync_mode_never_leaves_a_backlog(self):
        """Sync stores force-flush at manifest commit, so the queue is
        empty at every durability point — for every shard count."""
        for shards in self.SHARD_COUNTS:
            storage = CheckpointStorage(clock=VirtualClock(),
                                        shards=shards)
            rng = random.Random(SEEDS[0])
            pool = []
            for image_id in (1, 2):
                storage.store(_make_image(image_id, rng, pool),
                              charge_time=False)
                assert storage.writeback_backlog_bytes == 0
                assert not storage.cas.unflushed_digests()
            verdict = verify_chain(storage)
            assert verdict.ok, [str(i) for i in verdict.issues]
