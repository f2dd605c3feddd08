"""The three wall-clock workloads.

Each workload is a closed loop with one client, on one thread: the next
operation starts only when the previous one returned.  ``prepare`` builds
the state the loop reads (timed: that is ``setup_s``), ``measure`` runs the
loop for a wall-clock budget and checks every operation's output.  The
seed drives every choice the benchmark makes (fleet scheduler seeds,
op mix, targets); scenario content is whatever the program's generators
produce.

Imports of the program happen inside the functions, so this module (and
the harness self-tests that import it) loads without the ``src`` tree.
"""

import gc
import random
import time
import zlib
from collections import Counter
from contextlib import contextmanager

from harness import min_samples_for

perf = time.perf_counter

#: A measured loop never runs longer than this, whatever its floors say.
HARD_CAP_S = 75.0


def derive_seed(seed, *parts):
    """A stable 32-bit seed for one sub-stream of a run."""
    return zlib.crc32(repr((seed,) + parts).encode())


@contextmanager
def maybe_span(tracer, name, op_id=None):
    if tracer is None:
        yield
        return
    tracer.op_id = op_id
    with tracer.span(name):
        yield


class Phase:
    """What one measured loop produced."""

    def __init__(self):
        self.samples = {}        # op kind -> [wall seconds]
        self.units = 0           # work the throughput figure counts
        self.busy_s = 0.0        # wall time the loop spent on that work
        self.setups = []         # wall seconds per set-up
        self.attempted = 0
        self.failed = 0
        self.problems = []       # first few failure descriptions
        self.rec = Counter()     # recording-side counters
        self.rec_units = 0       # units those counters were recorded over
        self.read = Counter()    # read-side counters over measured ops
        self.extra = {}          # workload-specific figures

    def add(self, kind, seconds):
        self.samples.setdefault(kind, []).append(seconds)

    def fail(self, count, why):
        self.failed += count
        if len(self.problems) < 8:
            self.problems.append(why)

    def all_samples(self):
        return [s for values in self.samples.values() for s in values]


def short_of(phase, floors):
    """True while some op kind has fewer samples than its floor — the
    count its reported percentiles need."""
    return any(len(phase.samples.get(kind, ())) < count
               for kind, count in floors.items())


def counter_delta(after, before):
    return Counter({k: v - before.get(k, 0) for k, v in after.items()
                    if v - before.get(k, 0)})


def trace_targets():
    """``(class, attribute, span name)`` for every public layer call the
    traced run times.  Span names start with the layer's module package."""
    from repro.checkpoint.engine import CheckpointEngine
    from repro.checkpoint.restore import ReviveManager
    from repro.checkpoint.storage import CheckpointStorage, ShardedPageCAS
    from repro.display.driver import VirtualDisplayDriver
    from repro.display.playback import PlaybackEngine
    from repro.index.database import TemporalTextDatabase
    from repro.index.search import SearchEngine
    from repro.server.fleet import Fleet
    from repro.workloads import scenarios  # noqa: F401  (fills SCENARIOS)
    from repro.workloads.generator import SCENARIOS

    targets = [
        (Fleet, "step", "server.step"),
        (ShardedPageCAS, "flush_shard", "server.flush"),
        (VirtualDisplayDriver, "flush", "display.flush"),
        (PlaybackEngine, "seek", "display.seek"),
        (PlaybackEngine, "play", "display.play"),
        (TemporalTextDatabase, "open_occurrence", "index.ingest"),
        (TemporalTextDatabase, "close_occurrence", "index.ingest"),
        (SearchEngine, "search", "index.search"),
        (CheckpointEngine, "checkpoint", "checkpoint.engine"),
        (CheckpointStorage, "store", "checkpoint.store"),
        (CheckpointStorage, "load", "checkpoint.load"),
        (ReviveManager, "revive", "checkpoint.revive"),
        (ReviveManager, "revive_thinned", "replay.revive"),
    ]
    for cls in sorted(set(SCENARIOS.values()), key=lambda c: c.name):
        if "unit" in cls.__dict__:
            targets.append((cls, "unit", "workloads.unit"))
    return targets


# ---------------------------------------------------------------------- #
# record-fleet: the write path


class RecordFleet:
    """Fleets of 16 members over ``DEFAULT_MIX`` (async writeback, 4
    shards), each run to completion; one client per member, interleaved
    by the fleet's seeded scheduler."""

    name = "record-fleet"
    sessions = 16
    tail_per_mille = 990
    floors = {"step": min_samples_for(990)}

    def __init__(self, seed):
        self.seed = seed

    def prepare(self, probe, tracer=None):
        return []  # every fleet the loop runs is its own timed set-up

    def measure(self, seconds, probe, tracer=None):
        from repro.workloads.fleet_wl import build_fleet

        phase = Phase()
        phase.extra.update(downtime_us=[], stored_bytes=0, sim_us=0,
                           backlog_p95=[])
        start = perf()
        index = 0
        while perf() - start < seconds or short_of(phase, self.floors):
            if perf() - start > HARD_CAP_S:
                phase.fail(1, "record-fleet: hard time cap reached")
                break
            gc.collect()
            fleet_seed = derive_seed(self.seed, "fleet", index)
            probe.sample()
            began = perf()
            with maybe_span(tracer, "setup"):
                fleet = build_fleet(self.sessions, seed=fleet_seed)
            phase.setups.append(perf() - began)
            self._run(fleet, phase, probe, tracer)
            index += 1
            del fleet
        return phase

    def _run(self, fleet, phase, probe, tracer):
        steps = []
        try:
            while fleet.runnable():
                probe.tick()
                if tracer is not None:
                    tracer.op_id = phase.attempted + len(steps)
                    span = tracer.begin("op.step")
                t = perf()
                fleet.step()
                steps.append(perf() - t)
                if tracer is not None:
                    tracer.end(span)
            t = perf()
            fleet.drain_writeback(reason="shutdown")
            drain = perf() - t
        except Exception as exc:  # a crashed step fails its whole fleet
            phase.attempted += len(steps) + 1
            phase.fail(len(steps) + 1, "fleet step raised %r" % (exc,))
            return
        phase.busy_s += sum(steps) + drain
        phase.attempted += len(steps)
        for seconds in steps:
            phase.add("step", seconds)
        members = fleet.members()
        units = sum(m.units_done for m in members)
        phase.units += units
        problems = check_fleet(fleet)
        if problems:
            phase.fail(len(steps), "fleet: " + "; ".join(problems[:3]))
        # Counters and the simulated figures (Figs. 3-4) of this fleet.
        stored = fleet.cas.total_uncompressed_bytes
        for member in members:
            dejaview = member.dejaview
            phase.rec.update(dejaview.telemetry.metrics.counter_values())
            report = dejaview.storage_report()
            stored += report["display"] + report["index"] + report["fs_log"]
            phase.extra["downtime_us"].extend(
                result.downtime_us for result in dejaview.engine.history)
        phase.rec.update(fleet.telemetry.metrics.counter_values())
        phase.rec_units += units
        phase.extra["stored_bytes"] += stored
        phase.extra["sim_us"] += fleet.clock.now_us
        backlog = fleet.telemetry.metrics.histogram(
            "fleet.writeback_backlog").summary()
        phase.extra["backlog_p95"].append(backlog["p95"] or 0)


def check_fleet(fleet):
    """Problems with a finished fleet: a member not DONE with every unit
    recorded, writeback not drained, a page-store refcount fsck failure,
    or a member whose checkpoint chain does not verify."""
    from repro.checkpoint.verify import verify_chain
    from repro.server.fleet import DONE

    problems = []
    members = fleet.members()
    for member in members:
        if member.state != DONE or member.units_done != member.run.units:
            problems.append("%s ended %s after %d/%d units" % (
                member.name, member.state, member.units_done,
                member.run.units))
    if fleet.cas.backlog_bytes():
        problems.append("writeback not drained")
    if not fleet.cas.refcount_consistent():
        problems.append("page store refcounts inconsistent")
    for member in members:
        verdict = verify_chain(member.dejaview.storage,
                               member.session.fsstore)
        if not verdict.ok:
            problems.append("%s chain: %s" % (
                member.name, "; ".join(map(str, verdict.issues[:2]))))
    return problems


# ---------------------------------------------------------------------- #
# recall: the display and text read path


class Recall:
    """One long desktop recording (checkpointing off); then search,
    browse and play in a seeded closed loop.

    Queries and browse points follow the Fig. 5 method
    (``benchmarks/bench_fig5_browse_search.py``); ``WORKLOADS.md`` gives
    the source or the reason for every number here."""

    name = "recall"
    units = 480                  # eight simulated minutes, one tick/s
    keyframe_interval_s = 20     # 24 keyframes against the 8-frame cache
    setups = 3
    tail_per_mille = 990
    floors = {"search": min_samples_for(990), "browse": min_samples_for(990)}
    #: Fig. 5: browse points at least this many display commands apart.
    browse_min_commands = 100
    #: Fig. 5 desktop queries: every second one restricted to one of these
    #: applications in turn, every third to the middle half of the run.
    query_apps = ("firefox", "openoffice", "gaim")
    #: Half of the seeded browses go to the newest browse points; this
    #: many is half the playback engine's 8-keyframe cache.
    recent_points = 4

    def __init__(self, seed):
        self.seed = seed

    def _config(self):
        from repro.common.units import seconds
        from repro.desktop.dejaview import RecordingConfig
        from repro.display.recorder import RecorderConfig

        return RecordingConfig(
            record_checkpoints=False,
            recorder_config=RecorderConfig(
                screenshot_interval_us=seconds(self.keyframe_interval_s)))

    def prepare(self, probe, tracer=None):
        from repro.workloads.generator import get_workload

        times = []
        for _ in range(1 if tracer is not None else self.setups):
            self.run = None
            gc.collect()
            probe.sample()
            began = perf()
            with maybe_span(tracer, "setup"):
                run = get_workload("desktop").run(recording=self._config(),
                                                  units=self.units)
            times.append(perf() - began)
            self.run = run
        dejaview = self.run.dejaview
        self.dejaview = dejaview
        self.record = dejaview.display_record()
        self.rec_counts = Counter(dejaview.telemetry.metrics.counter_values())
        self._build_inputs()
        return times

    def _build_inputs(self):
        from repro.display.protocol import CommandLogReader

        stamps = [ts for _cmd, ts, _off in
                  CommandLogReader(self.record.log_bytes)]
        step = self.browse_min_commands
        self.points = stamps[step::step]
        if len(self.points) <= self.recent_points:
            raise RuntimeError("recording has only %d browse points"
                               % len(self.points))
        self.recent = self.points[-self.recent_points:]
        # Fig. 5 draws query words from tokens longer than two letters.
        self.vocabulary = sorted(t for t in self.dejaview.database.vocabulary()
                                 if len(t) > 2)
        self.now_us = self.run.end_us

    def _query(self, rng, index):
        """The ``index``-th query's descriptor: (words, app, start, end)."""
        words = tuple(rng.sample(self.vocabulary, 2))
        app = self.query_apps[index % 3] if index % 2 == 0 else None
        if index % 3 == 0:
            return (words, app, self.now_us // 4, 3 * self.now_us // 4)
        return (words, app, None, None)

    @staticmethod
    def _build_query(descriptor):
        from repro.index.query import Clause, Query

        words, app, start_us, end_us = descriptor
        return Query(clauses=(Clause(any_of=words, app=app),),
                     start_us=start_us, end_us=end_us)

    def measure(self, seconds, probe, tracer=None):
        phase = Phase()
        dejaview = self.dejaview
        playback = dejaview.playback_engine()
        search = dejaview.search_engine()
        rng = random.Random(derive_seed(self.seed, "recall"))
        searches = []   # (descriptor, signature)
        browses = []    # (target_us, checksum)
        plays = []      # (end_us, checksum)
        pending_top = None
        before = Counter(dejaview.telemetry.metrics.counter_values())
        start = perf()
        while perf() - start < seconds or short_of(phase, self.floors):
            if perf() - start > HARD_CAP_S:
                phase.fail(1, "recall: hard time cap reached")
                break
            probe.tick()
            if pending_top is not None:
                kind, target = "browse", pending_top
                pending_top = None
            else:
                kind = ("search", "browse", "play")[rng.randrange(3)]
                if kind == "search":
                    descriptor = self._query(rng, len(searches))
                    query = self._build_query(descriptor)
                elif kind == "browse":
                    target = rng.choice(self.points if rng.random() < 0.5
                                        else self.recent)
                else:
                    first = rng.randrange(len(self.points) - 1)
                    play_from = self.points[first]
                    play_to = self.points[first + 1]
            phase.attempted += 1
            try:
                with maybe_span(tracer, "op." + kind, phase.attempted):
                    t = perf()
                    if kind == "search":
                        out = search.search(query, render=False,
                                            now_us=self.now_us)
                    elif kind == "browse":
                        out = playback.seek(target)
                    else:
                        out = playback.play(play_from, play_to,
                                            fastest=True)
                    elapsed = perf() - t
            except Exception as exc:
                phase.fail(1, "%s raised %r" % (kind, exc))
                continue
            phase.add(kind, elapsed)
            phase.busy_s += elapsed
            phase.units += 1
            if kind == "search":
                searches.append((descriptor, _signature(out)))
                if out:
                    pending_top = out[0].timestamp_us
            elif kind == "browse":
                browses.append((target, out[0].checksum()))
            else:
                plays.append((play_to, out[0].checksum()))
        phase.read = counter_delta(
            Counter(dejaview.telemetry.metrics.counter_values()), before)
        self._check(phase, searches, browses, plays)
        return phase

    def _check(self, phase, searches, browses, plays):
        """Browse and play frames against an unpruned playback of the same
        record; search hits against a fresh engine with a cold cache."""
        from repro.common.clock import VirtualClock
        from repro.display.playback import PlaybackEngine
        from repro.index.search import SearchEngine

        reference = PlaybackEngine(self.record, clock=VirtualClock(),
                                   prune=False)
        frames = {}
        for target in sorted({t for t, _ in browses} | {t for t, _ in plays}):
            frames[target] = reference.seek(target)[0].checksum()
        for kind, items in (("browse", browses), ("play", plays)):
            for target, checksum in items:
                if frames[target] != checksum:
                    phase.fail(1, "%s at %d: frame differs from the "
                               "unpruned reference" % (kind, target))
        expected = {}
        for descriptor, signature in searches:
            if descriptor not in expected:
                cold = SearchEngine(self.dejaview.database,
                                    clock=VirtualClock())
                expected[descriptor] = _signature(cold.search(
                    self._build_query(descriptor), render=False,
                    now_us=self.now_us))
            if expected[descriptor] != signature:
                phase.fail(1, "search %r: hits differ from a cold engine"
                           % (descriptor,))


def _signature(results):
    return tuple((r.timestamp_us, r.substream.start_us, r.substream.end_us,
                  r.snippet) for r in results)


# ---------------------------------------------------------------------- #
# timetravel: the checkpoint and replay read path


class TimeTravel:
    """A desktop recording with its replay log; then ``take_me_back`` at
    seeded instants, and replay-revives of the instants the default
    thinning policy would tombstone.

    A replay-revive calls ``ReviveManager.revive_thinned`` — the work of
    ``take_me_back`` on a tombstone — with the tombstone that
    ``CheckpointStorage.thin`` would write: the nearest earlier checkpoint
    the policy keeps as anchor, the stored image's frame fingerprint and
    the framebuffer checksum the replay log holds.  The set-up does not
    thin: ``gc.thin_checkpoints`` can leave a kept image paging from a
    tombstone, whose revive then fails (WORKLOADS.md, "Thinning left
    out"; ``test_harness.KnownThinningDefect``).

    Ops run in batches, in seeded order: each batch replay-revives every
    planned tombstone once and lands ``restores_per_checkpoint`` times on
    every checkpoint (``revive``) at a seeded instant inside its interval.
    Whole batches keep the mix of cheap restores and second-long replays
    the same on every run, and a fixed number of them the op count."""

    name = "timetravel"
    units = 80                   # 13 checkpoints, 6 of them planned
    #                              tombstones under the default policy
    setups = 3
    tail_per_mille = 900
    floors = {"revive": min_samples_for(900), "replay_revive": 3}
    restores_per_checkpoint = 12  # revive ops per checkpoint in a batch
    #: A run does one batch per ``batch_s`` of ``--seconds``, whatever the
    #: clock says, so every run does the same ops; a clock-bound run did
    #: one batch or two depending on host speed.  A batch takes 11–16 s.
    batch_s = 10.0

    def __init__(self, seed):
        self.seed = seed

    def prepare(self, probe, tracer=None):
        from repro.replay.replayer import record_scenario

        times = []
        for _ in range(1 if tracer is not None else self.setups):
            self.recorded = None
            gc.collect()
            probe.sample()
            began = perf()
            with maybe_span(tracer, "setup"):
                recorded = record_scenario("desktop", units=self.units)
            times.append(perf() - began)
            self.recorded = recorded
        dejaview = self.recorded.dejaview
        self.dejaview = dejaview
        self.rec_counts = Counter(dejaview.telemetry.metrics.counter_values())
        self.rec_downtimes = [result.downtime_us
                              for result in dejaview.engine.history]
        self._build_inputs()
        return times

    def _build_inputs(self):
        from repro.checkpoint.gc import ThinningPolicy
        from repro.replay.log import EV_ANCHOR
        from repro.replay.replayer import anchor_index, prepare_events

        dejaview = self.dejaview
        storage = dejaview.storage
        history = sorted(dejaview.engine.history,
                         key=lambda r: r.timestamp_us)
        end_us = self.recorded.run.end_us
        self.landing = {}   # checkpoint id -> [first_us, last_us]
        for i, result in enumerate(history):
            upto = (history[i + 1].timestamp_us - 1 if i + 1 < len(history)
                    else end_us)
            self.landing[result.checkpoint_id] = (result.timestamp_us, upto)
        self.stored = sorted(self.landing)
        self.damaged = {c for c in self.stored
                        if c not in storage or not storage.blob_ok(c)[0]}
        # The tombstones gc.thin_checkpoints would write for the default
        # policy: only anchored instants, each naming the nearest earlier
        # anchored checkpoint the policy keeps.
        anchors = anchor_index(self.recorded.log_bytes)
        planned = ThinningPolicy().plan(
            history, dejaview.session.clock.now_us) & set(anchors)
        self.tombstones = {}
        last_anchor = None
        for result in history:
            checkpoint_id = result.checkpoint_id
            if checkpoint_id not in planned:
                if checkpoint_id in anchors:
                    last_anchor = checkpoint_id
                continue
            if last_anchor is None:
                continue
            self.tombstones[checkpoint_id] = {
                "image_id": checkpoint_id,
                "anchor_id": last_anchor,
                "timestamp_us": result.timestamp_us,
                "checkpoint_fp": storage.blob_fingerprint(checkpoint_id),
                "framebuffer_sha1":
                    anchors[checkpoint_id]["framebuffer_sha1"],
            }
        if not self.tombstones:
            raise RuntimeError("the thinning policy planned no tombstone")
        _meta, events, _torn, _stopped = prepare_events(
            self.recorded.log_bytes)
        self.anchor_position = {
            event.data["checkpoint_id"]: index + 1
            for index, event in enumerate(events)
            if event.etype == EV_ANCHOR}

    def measure(self, seconds, probe, tracer=None):
        dejaview = self.dejaview
        phase = Phase()
        phase.extra.update(pages_restored=0, bytes_read=0,
                           events_verified=0, distance_events=0,
                           replays=0, revives=0)
        rng = random.Random(derive_seed(self.seed, "timetravel"))
        batch = []
        batches = max(1, round(seconds / self.batch_s))
        before = Counter(dejaview.telemetry.metrics.counter_values())
        start = perf()
        while True:
            if not batch:
                if batches <= 0 and not short_of(phase, self.floors):
                    break
                if perf() - start > HARD_CAP_S:
                    phase.fail(1, "timetravel: hard time cap reached")
                    break
                batches -= 1
                batch = ([("revive", c) for c in self.stored]
                         * self.restores_per_checkpoint
                         + [("replay_revive", c) for c in self.tombstones])
                rng.shuffle(batch)
            kind, target = batch.pop()
            probe.tick()
            if kind == "revive":
                first_us, last_us = self.landing[target]
                instant = rng.randint(first_us, last_us)
                label = "take_me_back(%d)" % instant
            else:
                label = "revive_thinned(%d)" % target
            phase.attempted += 1
            try:
                with maybe_span(tracer, "op." + kind, phase.attempted):
                    t = perf()
                    if kind == "revive":
                        result = dejaview.take_me_back(instant)
                    else:
                        result = dejaview.reviver.revive_thinned(
                            target, dict(self.tombstones[target]),
                            dejaview.replay.getvalue())
                    elapsed = perf() - t
            except Exception as exc:
                phase.fail(1, "%s raised %r" % (label, exc))
                continue
            phase.add(kind, elapsed)
            phase.busy_s += elapsed
            phase.units += 1
            problem = check_revive(kind, target, result,
                                   target in self.damaged)
            if problem is not None:
                phase.fail(1, "%s: %s" % (label, problem))
            phase.extra["pages_restored"] += result.pages_restored
            phase.extra["bytes_read"] += result.bytes_read
            phase.extra["revives"] += 1
            if result.replayed:
                phase.extra["replays"] += 1
                phase.extra["events_verified"] += \
                    result.replay_events_verified
                phase.extra["distance_events"] += self.anchor_position.get(
                    result.checkpoint_id, 0)
            # The user closes the revived session before the next op, as
            # SessionManager.close does: a revived container lives in the
            # kernel until torn down.  (A replay-revive's container lives
            # in the replayed session's kernel and goes with it.)
            kernel = dejaview.reviver.kernel
            if result.container in kernel.containers:
                kernel.destroy_container(result.container)
            if kind == "replay_revive":
                # The replayed session is cyclic garbage: collect it before
                # the next op, so peak_rss_mb holds one replay at a time
                # and not as many as the collector has not reached yet.
                result = None
                gc.collect()
        phase.read = counter_delta(
            Counter(dejaview.telemetry.metrics.counter_values()), before)
        return phase


def check_revive(kind, target, result, damaged=False):
    """What is wrong with a ``take_me_back`` result, or None.

    A stored checkpoint must be restored as itself.  Only a target whose
    image is missing or fails its checksum (``damaged``) may fall back,
    and then to an earlier instant (``take_me_back``'s documented
    contract).  A tombstone must be replay-revived to exactly its own
    instant — the program has already hard-verified the replayed
    fingerprints against the tombstone, or it would have raised."""
    if kind == "replay_revive":
        if not (result.replayed and result.checkpoint_id == target):
            return "tombstone %d was not replay-revived" % target
        return None
    if damaged:
        if result.checkpoint_id >= target:
            return "damaged checkpoint %d revived as %d" % (
                target, result.checkpoint_id)
        return None
    if result.replayed or result.checkpoint_id != target:
        return "intact checkpoint %d revived as %s%d" % (
            target, "replay of " if result.replayed else "",
            result.checkpoint_id)
    return None


WORKLOADS = {cls.name: cls for cls in (RecordFleet, Recall, TimeTravel)}
