"""The checkpoint engine (sections 5.1.1 and 5.1.2).

The engine runs as a privileged actor outside the container and takes a
globally consistent checkpoint in four steps: quiesce, save execution
state, snapshot the file system, resume.  Around that core it implements
every optimization the paper describes, each individually toggleable so the
ablation benchmark can reproduce the paper's claim that "the unoptimized
mechanism was too slow to checkpoint at the once a second rate":

Shifting I/O out of the downtime window
    * ``pre_snapshot`` — sync the file system *before* quiescing, so the
      in-downtime snapshot has (almost) nothing left to flush.
    * ``pre_quiesce`` — wait (bounded) until every process can act on a
      stop signal, so one process stuck in disk I/O does not stretch the
      stopped window.
    * ``defer_writeback`` — buffer the checkpoint image in memory and
      write it to disk only after the session has resumed.

Reducing in-downtime work
    * ``use_cow`` — instead of copying memory while stopped, write-protect
      the saved pages and let post-resume write faults produce the copies
      lazily.
    * relinking — open-but-unlinked files get a hidden directory entry so
      the file system snapshot preserves their contents and the checkpoint
      image does not have to.
    * ``use_incremental`` — only pages dirtied since the previous
      checkpoint are saved; full checkpoints recur every
      ``full_checkpoint_interval`` checkpoints for redundancy.
"""

from collections import deque
from dataclasses import dataclass

from repro.common.errors import CheckpointError, FileSystemError
from repro.common.telemetry import resolve_telemetry
from repro.common.units import ms
from repro.checkpoint.image import CheckpointImage
from repro.vex.process import ProcessState


@dataclass
class EngineOptions:
    """Toggles for the section 5.1.2 optimizations (all on by default)."""

    use_cow: bool = True
    use_incremental: bool = True
    defer_writeback: bool = True
    pre_snapshot: bool = True
    pre_quiesce: bool = True
    pre_quiesce_timeout_us: int = ms(100)
    full_checkpoint_interval: int = 1000
    """Take a full checkpoint every N checkpoints ("a full checkpoint every
    thousand incremental ones only incurs an additional 1% storage
    overhead")."""


@dataclass
class CheckpointResult:
    """Timings and sizes of one checkpoint (the Figure 3 / 4 quantities)."""

    checkpoint_id: int
    timestamp_us: int
    full: bool
    pre_snapshot_us: int = 0
    pre_quiesce_us: int = 0
    quiesce_us: int = 0
    capture_us: int = 0
    fs_snapshot_us: int = 0
    writeback_us: int = 0
    saved_pages: int = 0
    process_count: int = 0
    image_bytes: int = 0
    image_bytes_compressed: int = 0
    bytes_written: int = 0
    pages_deduped: int = 0
    dedup_bytes_saved: int = 0
    writeback_backlog_bytes: int = 0
    """Bytes still queued (un-flushed) in the page store's append queues
    when this checkpoint's writeback returned.  Always 0 for synchronous
    writeback (the store force-flushes at manifest commit); under async
    group commit the backlog drains on the service clock instead."""

    @property
    def pre_checkpoint_us(self):
        """The paper's "pre-checkpoint" bar: pre-snapshot + pre-quiesce."""
        return self.pre_snapshot_us + self.pre_quiesce_us

    @property
    def downtime_us(self):
        """Time processes are stopped: quiesce + capture + fs snapshot.
        (With deferred writeback, writeback overlaps execution; without
        it, the writeback time lands inside the stopped window and is
        included here by the engine.)"""
        return self.quiesce_us + self.capture_us + self.fs_snapshot_us

    @property
    def total_us(self):
        return self.pre_checkpoint_us + self.downtime_us + self.writeback_us


class CheckpointEngine:
    """Continuously checkpoints one container."""

    def __init__(self, kernel, container, fsstore, storage, options=None,
                 telemetry=None):
        self.kernel = kernel
        self.container = container
        self.fsstore = fsstore
        self.storage = storage
        self.options = options if options is not None else EngineOptions()
        self.clock = kernel.clock
        self.costs = kernel.costs
        self.telemetry = resolve_telemetry(telemetry)
        metrics = self.telemetry.metrics
        self._m_checkpoints = metrics.counter("checkpoint.count")
        self._m_full = metrics.counter("checkpoint.full_count")
        self._m_pages = metrics.counter("checkpoint.pages_saved")
        self._m_cow_faults = metrics.counter("checkpoint.cow_faults")
        self._m_bytes = metrics.counter("checkpoint.image_bytes")
        self._m_downtime = metrics.histogram("checkpoint.downtime_us")
        self._m_total = metrics.histogram("checkpoint.total_us")
        self._m_backlog = metrics.histogram("checkpoint.writeback_backlog")
        self._next_id = 1
        self._last_image_id = None
        self._checkpoints_since_full = 0
        #: Running page-location directory (key -> image id of latest copy).
        self._page_locations = {}
        #: COW copies taken by write faults between resume and writeback.
        self._cow_pending = {}
        self._capture_keys = None  # keys being captured, during COW window
        self._recent_buffer_sizes = deque(maxlen=5)
        self.history = []
        self._install_fault_handlers()
        # Interpose on process creation: each fork pays tracking overhead
        # while checkpointing is active, and gets its fault handler wired
        # immediately.
        container.spawn_listeners.append(self._on_spawn)

    def _on_spawn(self, process):
        self.clock.advance_us(self.costs.fork_interpose_us)
        process.address_space.set_fault_handler(
            self._make_handler(process.vpid)
        )

    # ------------------------------------------------------------------ #
    # COW fault path

    def _install_fault_handlers(self):
        for process in self.container.live_processes():
            space = process.address_space
            space.set_fault_handler(self._make_handler(process.vpid))

    def _make_handler(self, vpid):
        def handler(region, page_index):
            # Service one COW fault: copy the still-original page content
            # into the pending buffer, then the address space clears the
            # flag and lets the write proceed.
            key = (vpid, region.start, page_index)
            if self._capture_keys is not None and key in self._capture_keys:
                self._cow_pending.setdefault(key, region.page_content(page_index))
            self._m_cow_faults.inc()
            self.clock.advance_us(self.costs.cow_fault_us)

        return handler

    # ------------------------------------------------------------------ #
    # The checkpoint pipeline

    def checkpoint(self, on_resumed=None):
        """Take one checkpoint; returns a :class:`CheckpointResult`.

        ``on_resumed`` (optional) is invoked after the session resumes and
        before the deferred writeback — the window in which application
        writes hit COW-protected pages and get captured lazily.  Tests and
        workloads use it to exercise that path; the default is to write
        back immediately.
        """
        opts = self.options
        clock = self.clock
        container = self.container
        telemetry = self.telemetry
        checkpoint_id = self._next_id
        self._next_id += 1

        result = CheckpointResult(
            checkpoint_id=checkpoint_id,
            timestamp_us=clock.now_us,
            full=False,
        )

        with telemetry.span("checkpoint", checkpoint_id=checkpoint_id) as ckpt_span:
            # Phase 0a: pre-snapshot file system sync (outside downtime).
            if opts.pre_snapshot:
                with telemetry.span("checkpoint.pre_snapshot"):
                    watch = clock.stopwatch()
                    self.fsstore.pre_snapshot_sync()
                    result.pre_snapshot_us = watch.elapsed_us

            # Phase 0b: pre-quiesce — wait for uninterruptible processes.
            if opts.pre_quiesce:
                with telemetry.span("checkpoint.pre_quiesce"):
                    watch = clock.stopwatch()
                    deadline = clock.now_us + opts.pre_quiesce_timeout_us
                    while not container.all_signalable(clock.now_us):
                        pending = [
                            p.busy_until_us
                            for p in container.live_processes()
                            if not p.signalable(clock.now_us)
                        ]
                        target = min(min(pending), deadline)
                        clock.advance_to_us(target)
                        if clock.now_us >= deadline:
                            break
                    result.pre_quiesce_us = watch.elapsed_us

            # Phase 1: quiesce (downtime begins here).
            with telemetry.span("checkpoint.quiesce"):
                watch = clock.stopwatch()
                self.kernel.stop_all(container)
                # Processes still in uninterruptible sleep stop only when
                # their operation completes; without pre-quiesce this wait
                # is *in* the stopped window and the user feels it.
                for process in container.live_processes():
                    while process.state is not ProcessState.STOPPED:
                        clock.advance_to_us(process.busy_until_us)
                        clock.advance_us(self.costs.context_switch_us)
                        process.flush_pending_signals(clock.now_us)
                result.quiesce_us = watch.elapsed_us

            # Phase 2: capture execution state.
            full = (
                not opts.use_incremental
                or self._last_image_id is None
                or self._checkpoints_since_full >= opts.full_checkpoint_interval
            )
            result.full = full
            with telemetry.span("checkpoint.capture", full=full):
                watch = clock.stopwatch()
                image = CheckpointImage(
                    checkpoint_id=checkpoint_id,
                    timestamp_us=clock.now_us,
                    container_name=container.name,
                    parent_id=None if full else self._last_image_id,
                    full=full,
                )
                save_keys = self._capture(image, full)
                result.saved_pages = len(save_keys)
                result.process_count = len(image.processes)
                result.capture_us = watch.elapsed_us

            # Phase 3: file system snapshot, bound to this checkpoint.
            with telemetry.span("checkpoint.fs_snapshot"):
                watch = clock.stopwatch()
                image.fs_txn = self.fsstore.take_snapshot(checkpoint_id)
                result.fs_snapshot_us = watch.elapsed_us

            if not opts.defer_writeback:
                # Unoptimized: the image is written while processes are
                # stopped, and the disk time lands in the downtime window.
                with telemetry.span("checkpoint.writeback", deferred=False):
                    watch = clock.stopwatch()
                    self._writeback(image, save_keys, result, deferred=False)
                    result.capture_us += watch.elapsed_us

            # Phase 4: resume.
            self.kernel.continue_all(container)

            if on_resumed is not None and opts.defer_writeback:
                on_resumed()

            if opts.defer_writeback:
                with telemetry.span("checkpoint.writeback", deferred=True):
                    self._writeback(image, save_keys, result, deferred=True)

            ckpt_span.set("full", full)
            ckpt_span.set("saved_pages", result.saved_pages)

        self._last_image_id = checkpoint_id
        self._checkpoints_since_full = 0 if full else self._checkpoints_since_full + 1
        self.history.append(result)
        self._m_checkpoints.inc()
        if full:
            self._m_full.inc()
        self._m_pages.inc(result.saved_pages)
        self._m_bytes.inc(result.image_bytes)
        self._m_downtime.observe(result.downtime_us)
        self._m_total.observe(result.total_us)
        return result

    # ------------------------------------------------------------------ #
    # Capture internals

    def _capture(self, image, full):
        """Record process/region state and select pages to save.

        Returns the set of page keys this image will contain.  With COW the
        page *contents* are not read here — only protection bits flip —
        which is what keeps the stopped window small.
        """
        opts = self.options
        container = self.container
        save_keys = set()
        self._install_fault_handlers()  # new processes since last time

        for process in container.live_processes():
            self.clock.advance_us(self.costs.process_state_save_us)
            image.processes.append(self._process_record(process))

            # Relink open-unlinked files so the fs snapshot keeps their
            # contents out of the checkpoint image (section 5.1.2, opt 2).
            for fd in process.open_files.values():
                if fd.kind == "file" and fd.unlinked and fd.inode is not None:
                    try:
                        target = self.fsstore.fs.relink_inode(fd.inode)
                    except FileSystemError:
                        # The inode lives in a read-only lower layer of a
                        # revived session's mount; lower layers are
                        # immutable, so the content is preserved anyway.
                        continue
                    if target is not None:
                        image.relinked_files.append((process.vpid, fd.fd, target))

            space = process.address_space
            regions = space.regions()
            self.clock.advance_us(len(regions) * self.costs.region_metadata_us)
            image.regions[process.vpid] = [
                r.clone_for_checkpoint() for r in regions
            ]
            for region in regions:
                if full:
                    pages = sorted(region.pages)
                else:
                    pages = sorted(region.dirty & set(region.pages))
                self.clock.advance_us(len(region.pages) * self.costs.page_scan_us)
                for page_index in pages:
                    save_keys.add((process.vpid, region.start, page_index))

                if opts.use_cow:
                    # Write-protect the pages being saved; unmodified pages
                    # from earlier checkpoints are still protected.
                    to_protect = pages if not full else sorted(region.pages)
                    for page_index in to_protect:
                        region.ckpt_flagged.add(page_index)
                    self.clock.advance_us(
                        self.costs.protect_pages_us(len(to_protect))
                    )
                else:
                    # Stop-and-copy: read the contents inside the downtime.
                    for page_index in pages:
                        key = (process.vpid, region.start, page_index)
                        image.pages[key] = region.page_content(page_index)
                    self.clock.advance_us(self.costs.copy_pages_us(len(pages)))
                region.dirty.clear()

        # Update the running page-location directory.
        resident = self._resident_keys()
        if full:
            self._page_locations = {key: image.checkpoint_id for key in resident}
        else:
            self._page_locations = {
                key: owner
                for key, owner in self._page_locations.items()
                if key in resident
            }
            for key in save_keys:
                self._page_locations[key] = image.checkpoint_id
            missing = resident - set(self._page_locations)
            if missing:
                # Pages resident but never saved (e.g. created and written
                # between dirty-clear and now) — save them in this image.
                for key in missing:
                    save_keys.add(key)
                    self._page_locations[key] = image.checkpoint_id
        image.page_locations = dict(self._page_locations)
        self._capture_keys = save_keys if opts.use_cow else None
        return save_keys

    def _resident_keys(self):
        keys = set()
        for process in self.container.live_processes():
            for region in process.address_space.regions():
                for page_index in region.pages:
                    keys.add((process.vpid, region.start, page_index))
        return keys

    def _process_record(self, process):
        state = process._resume_state or ProcessState.RUNNABLE
        return {
            "vpid": process.vpid,
            "parent_vpid": process.parent.vpid if process.parent else None,
            "name": process.name,
            "state": state.value,
            "nice": process.nice,
            "uid": process.uid,
            "gid": process.gid,
            "groups": list(process.groups),
            "pending_signals": list(process.pending_signals),
            "blocked_signals": sorted(process.blocked_signals),
            "signal_handlers": dict(process.signal_handlers),
            "threads": [t.snapshot() for t in process.threads],
            "ptraced_by": process.ptraced_by,
            "cwd": process.cwd,
            "open_files": [fd.snapshot() for fd in process.open_files.values()],
        }

    # ------------------------------------------------------------------ #
    # Writeback

    def _writeback(self, image, save_keys, result, deferred=True):
        """Assemble page contents (resolving COW) and write the image.

        Deferred writeback overlaps application execution ("DejaView defers
        writing the persistent checkpoint image to disk until after the
        session has been resumed ... the checkpoint is first held in memory
        buffers"): the disk transfer runs in the background, so only the
        buffer-assembly CPU time lands on the session clock, while the full
        transfer duration is reported as the Figure 3 "writeback" bar.
        Synchronous writeback (the ablation) charges everything inline —
        inside the stopped window, which is precisely why it is too slow
        for 1 Hz checkpointing.

        When the underlying page store runs in async group-commit mode
        (fleet service), ``store`` only *enqueues* the physical page
        appends and returns — the stopped window and the session clock
        never include storage work at all; the service flushes shard
        queues on its own clock and ``drain()`` is the only barrier.
        """
        image.seal_metadata()  # one JSON encode serves every use below
        if self.options.use_cow:
            for key in sorted(save_keys):
                if key in image.pages:
                    continue
                content = self._cow_pending.pop(key, None)
                if content is None:
                    content = self._read_live_page(key)
                image.pages[key] = content
            # Copying the (still pristine) pages into the write buffer.
            self.clock.advance_us(self.costs.copy_pages_us(len(save_keys)))
            self._capture_keys = None
            self._cow_pending.clear()
        result.image_bytes = image_bytes = image.nbytes
        if deferred:
            receipt = self.storage.store(image, charge_time=False)
            duration = self.costs.disk_write_us(
                receipt.accounted_bytes, sequential=True)
            if self.storage.compress:
                duration += self.costs.compress_us(image_bytes)
            result.writeback_us = int(duration)
        else:
            receipt = self.storage.store(image, charge_time=True)
            result.writeback_us = 0  # included in the downtime instead
        result.bytes_written = receipt.accounted_bytes
        result.pages_deduped = receipt.pages_deduped
        result.dedup_bytes_saved = receipt.dedup_bytes_saved
        # Pipelined writeback: under async group commit the store only
        # enqueued the pages — record how deep the queue is so backlog
        # growth is visible per checkpoint (always 0 in sync mode).
        result.writeback_backlog_bytes = getattr(
            self.storage, "writeback_backlog_bytes", 0)
        self._m_backlog.observe(result.writeback_backlog_bytes)
        _unc, comp = self.storage.size_of(image.checkpoint_id)
        result.image_bytes_compressed = comp
        self._recent_buffer_sizes.append(image_bytes)

    def _read_live_page(self, key):
        vpid, region_start, page_index = key
        process = self.container.namespace.lookup_vpid(vpid)
        region = process.address_space.find_region(region_start)
        if region is None or region.start != region_start:
            raise CheckpointError(
                "region %#x vanished before writeback (vpid %d); the "
                "munmap happened between resume and writeback" % (region_start, vpid)
            )
        return region.page_content(page_index)

    # ------------------------------------------------------------------ #

    @property
    def estimated_buffer_bytes(self):
        """Preallocation estimate: average of recent checkpoint sizes
        (section 5.1.2: "DejaView estimates the size of the buffer based on
        the average amount of buffer space actually used for recent
        checkpoints")."""
        if not self._recent_buffer_sizes:
            return 4 * 1024 * 1024  # a sane initial guess
        return int(
            sum(self._recent_buffer_sizes) / len(self._recent_buffer_sizes)
        )

    @property
    def last_checkpoint_id(self):
        return self._last_image_id

    def recover_after_crash(self):
        """Resynchronize with storage after crash recovery dropped images.

        The running page-location directory (and the incremental parent
        pointer) may reference images that storage recovery deleted, which
        would poison every later incremental checkpoint with dangling
        locations.  Reset them so the next checkpoint is a self-contained
        full image, drop crashed entries from history, and clear any
        in-flight COW capture state the crash interrupted.
        """
        stored = set(self.storage.stored_ids())
        # THINNED instants keep their place on the timeline: the
        # tombstone makes them revivable by replay, so history retains
        # them even though their bytes are gone.
        thinner = getattr(self.storage, "thinned_ids", None)
        keep = stored | (set(thinner()) if thinner is not None else set())
        removed = [r for r in self.history
                   if r.checkpoint_id not in keep]
        self.history = [r for r in self.history
                        if r.checkpoint_id in keep]
        # The incremental parent must be a *stored* image (thinned
        # parents have no pages to chain from); recovery forces the next
        # checkpoint full anyway, but keep the pointer honest.
        last_stored = [r.checkpoint_id for r in self.history
                       if r.checkpoint_id in stored]
        self._last_image_id = last_stored[-1] if last_stored else None
        self._page_locations = {}
        self._checkpoints_since_full = self.options.full_checkpoint_interval
        self._capture_keys = None
        self._cow_pending.clear()
        return {"history_dropped": [r.checkpoint_id for r in removed]}

    def average_downtime_us(self):
        if not self.history:
            return 0.0
        return sum(r.downtime_us for r in self.history) / len(self.history)
