"""The DejaView recorder: everything wired together.

Attach a :class:`DejaView` to a :class:`~repro.desktop.session.DesktopSession`
and it records the three streams the paper describes — display commands,
on-screen text with context, and continuous checkpoints — and offers the
user-facing verbs: playback, browse, search, and *Take me back*.

The :class:`RecordingConfig` mirrors the experimental setup of section 6:
each recording component can be enabled independently (Figure 2 measures
display / checkpoint / index recording separately and combined), checkpoints
can run at a fixed 1 Hz (the conservative benchmark configuration) or under
the section 5.1.3 policy (the real-usage configuration), and checkpoint
compression is a switch (Figure 4 reports both).
"""

from dataclasses import dataclass, field

from repro.checkpoint.engine import CheckpointEngine, EngineOptions
from repro.checkpoint.policy import CheckpointPolicy, PolicyConfig, PolicyContext
from repro.checkpoint.restore import ReviveManager
from repro.checkpoint.storage import CheckpointStorage
from repro.common.errors import CheckpointError, DejaViewError, ReviveError
from repro.common.faults import resolve_faults
from repro.common.flightrec import REC_EVENT, REC_RECOVERY, resolve_flightrec
from repro.common.telemetry import NULL_TELEMETRY, Telemetry
from repro.common.units import seconds
from repro.access.daemon import IndexingDaemon
from repro.display.playback import PlaybackEngine
from repro.display.recorder import DisplayRecorder, RecorderConfig
from repro.index.database import DEFAULT_EPOCH_WIDTH_US, TemporalTextDatabase
from repro.index.search import SearchEngine
from repro.replay.tap import NULL_TAP


@dataclass
class RecordingConfig:
    """Which recording components run, and how."""

    record_display: bool = True
    record_index: bool = True
    record_checkpoints: bool = True
    use_policy: bool = False
    """False = fixed 1 Hz checkpointing (the benchmarks' conservative
    setting); True = the section 5.1.3 display-driven policy."""
    policy_config: PolicyConfig = field(default_factory=PolicyConfig)
    engine_options: EngineOptions = field(default_factory=EngineOptions)
    recorder_config: RecorderConfig = field(default_factory=RecorderConfig)
    compress_checkpoints: bool = False
    checkpoint_page_store: bool = True
    """True (default) stores checkpoint pages in the content-addressed
    page store (serial format v3, cross-checkpoint dedup); False keeps
    the legacy whole-blob layout (v2) — the Figure 4 dedup baseline."""
    cas_shards: int = 1
    """Shard count for this session's private page store (ignored when a
    shared fleet ``page_cas`` is injected).  v3 manifests name digests,
    not extents, so the on-disk logical state is shard-layout-agnostic;
    sharding only changes the physical extent layout and lets group
    commits batch per shard."""
    telemetry_enabled: bool = True
    """Metrics + tracing for this recording session.  Telemetry never
    charges the virtual clock, so disabling it changes no recorded
    behavior — only whether anything is counted."""
    record_scale: float = 1.0
    """Display recording resolution relative to the screen (section 4.1)."""
    index_epoch_us: int = DEFAULT_EPOCH_WIDTH_US
    """Width of the text index's posting-list time buckets.  Windowed
    queries scan only the buckets overlapping their time range, so smaller
    epochs prune more for narrow windows at the price of more buckets."""
    fixed_interval_us: int = seconds(1)
    use_mirror_tree: bool = True
    """False switches the indexing daemon to the naive re-traversal
    strategy (ablation)."""
    fault_plan: object = None
    """A :class:`~repro.common.faults.FaultPlan` injected into every
    write path (crash/IO fault testing).  ``None`` — the default — binds
    the shared no-op plan, which adds no measurable overhead."""
    flightrec: object = None
    """A :class:`~repro.common.flightrec.FlightRecorder` journaling this
    session's closed spans, fault fires, recovery actions, and periodic
    counter deltas (under the session name as owner).  ``None`` — the
    default — binds the shared no-op recorder (NULL_FLIGHTREC): the
    tracer sink stays unset and the hot path is unchanged.  Journaling
    never charges the virtual clock, so enabling it keeps recordings
    bit-identical."""
    flightrec_rollup_ticks: int = 64
    """With a flight recorder bound, journal a counter-delta rollup
    record every this many recording ticks (0 disables the cadence)."""


@dataclass
class TickReport:
    """What happened during one recording tick."""

    checkpointed: bool = False
    checkpoint_result: object = None
    policy_reason: str = None
    display_commands: int = 0
    span: object = None
    """The tick's telemetry :class:`~repro.common.tracing.Span` (virtual +
    wall timings, with the checkpoint's phase spans nested inside); None
    when telemetry is disabled."""


class DejaView:
    """The personal virtual computer recorder."""

    def __init__(self, session, config=None, telemetry=None, page_cas=None):
        """``page_cas`` injects a shared
        :class:`~repro.checkpoint.storage.ShardedPageCAS` so several
        recorders dedup checkpoint pages against each other (fleet mode);
        the session's name becomes its owner id in the shared store.
        ``None`` — the default — keeps a private page store."""
        self.session = session
        self.config = config if config is not None else RecordingConfig()
        clock = session.clock
        costs = session.costs

        # One telemetry hub per recording session (injectable for tests and
        # for sharing a registry across sessions); everything below gets it.
        if telemetry is not None:
            self.telemetry = telemetry
        elif self.config.telemetry_enabled:
            self.telemetry = Telemetry(clock)
        else:
            self.telemetry = NULL_TELEMETRY
        bind = getattr(session.fs, "bind_telemetry", None)
        if bind is not None:  # revived sessions may expose a union mount
            bind(self.telemetry)

        # One fault plan per recording session, shared by every write
        # path (same injection pattern as telemetry; NULL_FAULTS when
        # none is configured).
        self.faults = resolve_faults(self.config.fault_plan)
        if self.faults.active:
            self.faults.bind_telemetry(self.telemetry.metrics)
        bind_faults = getattr(session.fs, "bind_faults", None)
        if bind_faults is not None:
            bind_faults(self.faults)

        # Flight recorder: the always-on event journal.  The scope binds
        # this session's owner name and virtual clock; spans, fault
        # fires, lifecycle events, and recovery actions all land in one
        # (possibly fleet-shared) ring journal.
        self.flightrec = resolve_flightrec(self.config.flightrec)
        self._flight = self.flightrec.scope(
            getattr(session, "name", "local"), clock)
        if self._flight.active:
            if self.telemetry.enabled:
                self.telemetry.tracer.sink = self._flight.span_sink()
            if self.faults.active:
                self.faults.bind_flightrec(self._flight)
            bind_flight = getattr(session, "bind_flightrec", None)
            if bind_flight is not None:
                bind_flight(self._flight)

        # Replay tap: the session carries it (it observes the whole vex
        # substrate, not just recording); here it learns about telemetry,
        # the fault plan (the ``replay.log.append`` site), checkpoint
        # anchors, and crash recovery.  Revived sessions have no tap.
        self.replay = getattr(session, "replay", NULL_TAP)
        if self.replay.active:
            self.replay.bind_telemetry(self.telemetry.metrics)
            if self.faults.active:
                self.replay.bind_faults(self.faults)

        self.recorder = None
        if self.config.record_display:
            width = max(1, int(session.width * self.config.record_scale))
            height = max(1, int(session.height * self.config.record_scale))
            self.recorder = DisplayRecorder(
                width, height, clock=clock, costs=costs,
                config=self.config.recorder_config,
                telemetry=self.telemetry, faults=self.faults,
            )
            session.driver.attach_sink(self.recorder,
                                       scale=self.config.record_scale)

        self.database = None
        self.daemon = None
        if self.config.record_index:
            self.database = TemporalTextDatabase(
                clock, costs=costs, telemetry=self.telemetry,
                epoch_width_us=self.config.index_epoch_us,
                faults=self.faults,
            )
            self.daemon = IndexingDaemon(
                session.registry, self.database,
                use_mirror_tree=self.config.use_mirror_tree,
                telemetry=self.telemetry,
            )

        storage_kwargs = {}
        if page_cas is not None:
            storage_kwargs["cas"] = page_cas
            storage_kwargs["owner"] = getattr(session, "name", "local")
        else:
            storage_kwargs["shards"] = self.config.cas_shards
        self.storage = CheckpointStorage(
            clock=clock, costs=costs,
            compress=self.config.compress_checkpoints,
            faults=self.faults,
            telemetry=self.telemetry,
            page_store=self.config.checkpoint_page_store,
            **storage_kwargs,
        )
        self.engine = None
        self.policy = None
        if self.config.record_checkpoints:
            self.engine = CheckpointEngine(
                session.kernel, session.container, session.fsstore,
                self.storage, self.config.engine_options,
                telemetry=self.telemetry,
            )
            if self.config.use_policy:
                self.policy = CheckpointPolicy(self.config.policy_config)
        self.reviver = ReviveManager(session.kernel, session.fsstore,
                                     self.storage,
                                     telemetry=self.telemetry)
        self._m_ticks = self.telemetry.metrics.counter("tick.count")
        self._m_tick_commands = self.telemetry.metrics.counter(
            "tick.display_commands")
        self._m_revive_fallbacks = self.telemetry.metrics.counter(
            "revive.fallbacks")
        self._m_recoveries = self.telemetry.metrics.counter(
            "recover.sessions")
        self._m_thinned = self.telemetry.metrics.counter(
            "thin.checkpoints")
        self._m_thin_bytes = self.telemetry.metrics.counter(
            "thin.bytes_freed")
        self._last_checkpoint_us = None
        self._flight_rollup_ticks = (
            self.config.flightrec_rollup_ticks if self._flight.active else 0)
        self._ticks_since_rollup = 0

    # ------------------------------------------------------------------ #
    # Recording loop

    def tick(self, keyboard_input=False, mouse_input=False,
             fullscreen_video=False, screensaver=False, system_load=0.0):
        """One recording tick: flush the display and decide on a
        checkpoint.  Workload generators call this after each burst of
        application activity."""
        report = TickReport()
        with self.telemetry.span("tick") as span:
            report.span = span if span.name else None
            report.display_commands = self.session.driver.flush()
            activity = self.session.driver.drain_activity()
            self._m_ticks.inc()
            self._m_tick_commands.inc(report.display_commands)
            if self._flight_rollup_ticks:
                self._ticks_since_rollup += 1
                if self._ticks_since_rollup >= self._flight_rollup_ticks:
                    self._ticks_since_rollup = 0
                    self._flight.record_counter_deltas(
                        self.telemetry.metrics.counter_values())
            if self.engine is None:
                return report
            now = self.session.clock.now_us
            if self.policy is not None:
                decision = self.policy.decide(
                    PolicyContext(
                        now_us=now,
                        display_activity=activity,
                        keyboard_input=keyboard_input,
                        mouse_input=mouse_input,
                        fullscreen_video=fullscreen_video,
                        screensaver=screensaver,
                        system_load=system_load,
                    )
                )
                report.policy_reason = decision.reason
                take = decision.take
            else:
                # Fixed-rate mode: the paper's conservative benchmark setting,
                # "checkpoint once per second" regardless of activity.
                take = (
                    self._last_checkpoint_us is None
                    or now - self._last_checkpoint_us >= self.config.fixed_interval_us
                )
            if take:
                report.checkpoint_result = self.engine.checkpoint()
                report.checkpointed = True
                self._last_checkpoint_us = now
                if self.replay.active:
                    # Anchor: the checkpoint's identity plus the exact
                    # screen contents, the bit-identity replay verifies
                    # (and the resume point for --from-checkpoint).
                    result = report.checkpoint_result
                    self.replay.anchor(
                        result.checkpoint_id, result.timestamp_us,
                        self.session.driver.framebuffer.checksum(),
                        self.storage.blob_fingerprint(
                            result.checkpoint_id))
            span.set("checkpointed", report.checkpointed)
            span.set("display_commands", report.display_commands)
        return report

    # ------------------------------------------------------------------ #
    # Playback / browse / search

    def display_record(self):
        """Snapshot the display record as recorded so far."""
        if self.recorder is None:
            raise DejaViewError("display recording is not enabled")
        return self.recorder.finalize()

    def playback_engine(self, cache_capacity=8, prune=True):
        return PlaybackEngine(
            self.display_record(), clock=self.session.clock,
            costs=self.session.costs, cache_capacity=cache_capacity,
            prune=prune, telemetry=self.telemetry,
        )

    def browse(self, time_us, engine=None):
        """Skip the record to ``time_us`` (the slider operation)."""
        engine = engine or self.playback_engine()
        return engine.seek(time_us)

    def playback(self, start_us, end_us, speed=1.0, fastest=False,
                 engine=None):
        engine = engine or self.playback_engine()
        return engine.play(start_us, end_us, speed=speed, fastest=fastest)

    def search_engine(self, cache_capacity=8):
        if self.database is None:
            raise DejaViewError("text indexing is not enabled")
        playback = self.playback_engine(cache_capacity=cache_capacity) \
            if self.recorder is not None else None
        return SearchEngine(self.database, playback=playback,
                            clock=self.session.clock,
                            telemetry=self.telemetry)

    def search(self, query, **kwargs):
        """Search the record; results carry screenshots (section 4.4)."""
        return self.search_engine().search(query, **kwargs)

    # ------------------------------------------------------------------ #
    # Take me back

    def checkpoint_before(self, time_us):
        """The last checkpoint at or before ``time_us`` (section 5.2:
        "DejaView searches for the last checkpoint that occurred before
        that point in time")."""
        if self.engine is None:
            raise DejaViewError("checkpointing is not enabled")
        candidate = None
        for result in self.engine.history:
            if result.timestamp_us <= time_us:
                candidate = result
            else:
                break
        if candidate is None:
            raise DejaViewError(
                "no checkpoint exists at or before t=%dus" % time_us
            )
        return candidate

    def take_me_back(self, time_us, cached=None, network_enabled=False):
        """Revive the session as it was at ``time_us``.

        Falls back over progressively older checkpoints when the newest
        candidate is torn, corrupt, or fails to revive (counted as
        ``revive.fallbacks``) — a damaged image costs temporal precision,
        never the whole operation.  A *thinned* candidate is not damage:
        its tombstone names a surviving replay anchor, so it is revived
        by replaying forward from that anchor — never silently skipped,
        and never counted as a fallback.
        """
        if self.engine is None:
            raise DejaViewError("checkpointing is not enabled")
        candidates = [result for result in self.engine.history
                      if result.timestamp_us <= time_us]
        if not candidates:
            raise DejaViewError(
                "no checkpoint exists at or before t=%dus" % time_us
            )
        last_error = None
        for candidate in reversed(candidates):
            image_id = candidate.checkpoint_id
            if self.storage.is_thinned(image_id):
                # Replayable by construction (the tombstone was only
                # written with a verified surviving anchor); a failure
                # here is a real error, not a reason to lose precision.
                return self._revive_thinned(
                    image_id, cached=cached,
                    network_enabled=network_enabled,
                )
            ok = image_id in self.storage and self.storage.blob_ok(image_id)[0]
            if ok:
                try:
                    return self.reviver.revive(
                        image_id, cached=cached,
                        network_enabled=network_enabled,
                    )
                except (ReviveError, CheckpointError) as exc:
                    last_error = exc
            self._m_revive_fallbacks.inc()
        raise ReviveError(
            "no checkpoint at or before t=%dus survived verification"
            % time_us
        ) from last_error

    def _revive_thinned(self, image_id, cached=None, network_enabled=False):
        """Revive a THINNED instant by replay from its anchor."""
        tombstone = self.storage.tombstone_of(image_id)
        if tombstone is None:
            raise ReviveError("checkpoint %d is not thinned" % image_id)
        log_data = None
        if self.replay.active and hasattr(self.replay, "getvalue"):
            log_data = self.replay.getvalue()
        return self.reviver.revive_thinned(
            image_id, tombstone, log_data,
            cached=cached, network_enabled=network_enabled,
        )

    # ------------------------------------------------------------------ #
    # Checkpoint thinning

    def thin_checkpoints(self, policy=None, now_us=None, protect=(),
                         compact=False):
        """Apply an age-tiered :class:`ThinningPolicy` to this session's
        checkpoint timeline (see :func:`repro.checkpoint.gc.
        thin_checkpoints`).

        Anchors are harvested from the session's replay log when one is
        recording, so only instants replay can verify are thinned and
        tombstones carry the recorded framebuffer fingerprints.  Returns
        the :class:`ThinReport`.
        """
        from repro.checkpoint.gc import ThinningPolicy, thin_checkpoints

        if self.engine is None:
            raise DejaViewError("checkpointing is not enabled")
        if policy is None:
            policy = ThinningPolicy()
        if now_us is None:
            now_us = self.session.clock.now_us
        anchors = None
        if self.replay.active and hasattr(self.replay, "getvalue"):
            from repro.replay.replayer import anchor_index
            anchors = anchor_index(self.replay.getvalue())
        report = thin_checkpoints(
            self.storage, self.engine.history, policy, now_us,
            anchors=anchors, protect=protect, compact=compact,
        )
        if report.thinned_images:
            self._m_thinned.inc(len(report.thinned_images))
            self._m_thin_bytes.inc(report.image_bytes_freed)
            if self._flight.active:
                self._flight.record(REC_EVENT, {
                    "action": "thin",
                    "thinned": len(report.thinned_images),
                    "bytes_freed": report.image_bytes_freed,
                    "tombstones": report.tombstones,
                })
        return report

    # ------------------------------------------------------------------ #
    # Crash recovery

    def recover(self):
        """Post-crash recovery across every recorded stream (the reopen
        path: run this after an unclean shutdown, before recording
        resumes).

        Order matters only for the checkpoint store, whose chain repair
        wants the file system recovered first (bindings resolve against
        the recovered log).  Returns a per-subsystem report dict;
        ``report["ok"]`` is True when the surviving checkpoint chain
        verifies clean.
        """
        flight = self._flight if self._flight.active else None
        if flight is not None:
            flight.record(REC_RECOVERY, {"action": "recover.begin"})
        with self.telemetry.span("recover"):
            report = {"ok": True}
            # The replay event log recovers first: its barrier must land
            # before recovery work starts advancing the clock, so replays
            # verify exactly the pre-crash prefix.
            if self.replay.active:
                report["replay_log"] = self.replay.recover_mark()
            fs_recover = getattr(self.session.fs, "recover", None)
            if fs_recover is not None:
                report["fs"] = fs_recover()
            report["storage"] = self.storage.recover(
                fsstore=self.session.fsstore)
            report["ok"] = report["storage"]["verify_ok"]
            if self.engine is not None:
                report["engine"] = self.engine.recover_after_crash()
            if self.recorder is not None:
                report["display"] = self.recorder.recover()
            if self.database is not None:
                report["index"] = self.database.recover()
            self._m_recoveries.inc()
        if flight is not None:
            storage = report["storage"]
            summary = {
                "action": "recover.done",
                "ok": report["ok"],
                "storage_torn_dropped": len(storage.get("torn_dropped", ())),
                "storage_chain_dropped": len(
                    storage.get("chain_dropped", ())),
            }
            display = report.get("display")
            if display is not None:
                summary["display_log_bytes_dropped"] = \
                    display.get("log_bytes_dropped", 0)
                summary["display_shot_bytes_dropped"] = \
                    display.get("screenshot_bytes_dropped", 0)
            index = report.get("index")
            if index is not None:
                summary["index_uncommitted_dropped"] = len(
                    index.get("uncommitted_dropped", ()))
                summary["index_postings_rebuilt"] = \
                    index.get("postings_rebuilt", 0)
            flight.record(REC_RECOVERY, summary)
            flight.record_counter_deltas(
                self.telemetry.metrics.counter_values())
        return report

    # ------------------------------------------------------------------ #
    # Observability

    def telemetry_snapshot(self, span_limit=8):
        """JSON-ready view of everything the session's telemetry saw:
        counters, gauges, histogram summaries, recent span trees, plus the
        event bus's delivery accounting.  Empty (``enabled: False``) when
        telemetry is disabled."""
        snap = self.telemetry.snapshot(span_limit=span_limit)
        bus = self.session.registry.bus
        snap["event_bus"] = {
            "published": bus.published_count,
            "delivered": bus.delivered_count,
            "errors": bus.error_count,
        }
        if self.faults.active:
            # Per-site failpoint hit/fired accounting, straight from the
            # plan (reachable before only via the raw registry).
            snap["faults"] = self.faults.hit_snapshot()
        return snap

    # ------------------------------------------------------------------ #
    # Storage accounting (Figure 4)

    def storage_report(self):
        """Bytes recorded per stream so far."""
        report = {
            "display": self.recorder.total_nbytes if self.recorder else 0,
            "index": self.database.approximate_bytes() if self.database else 0,
            "checkpoint_uncompressed": self.storage.total_uncompressed_bytes,
            "checkpoint_compressed": self.storage.total_compressed_bytes,
            "fs_log": self.session.fs.log_bytes,
            "fs_visible": self.session.fs.visible_bytes(),
        }
        fs = self.session.fs
        if hasattr(fs, "copy_up_bytes"):
            # A revived branch records over a COW union mount: copy-ups
            # are the branch's private divergence cost (section 5.2).
            report["fs_copy_up"] = fs.copy_up_bytes
            report["fs_copy_up_files"] = fs.copy_up_count
        report.update(self.storage.dedup_stats())
        return report

    @property
    def checkpoint_count(self):
        return len(self.engine.history) if self.engine else 0
