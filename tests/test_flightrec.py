"""Tests for the flight recorder: journal framing, the ring bound, crash
survival and resume, fleet post-mortems, trace/metrics exports, SLO
watchdogs, and the no-op fast path."""

import json
import os

import pytest

from repro.common.clock import VirtualClock
from repro.common.export import (
    chrome_trace_events,
    chrome_trace_json,
    prometheus_text,
    sanitize_metric_name,
)
from repro.common.faults import FaultPlan, InjectedCrash
from repro.common.flightrec import (
    NULL_FLIGHTREC,
    NULL_SCOPE,
    REC_ALERT,
    REC_COUNTERS,
    REC_EVENT,
    REC_FAULT,
    REC_QUOTA,
    REC_RECOVERY,
    REC_SCHED,
    REC_SPAN,
    FlightRecorder,
    format_post_mortem,
    replay_journal,
    resolve_flightrec,
)
from repro.common.slo import (
    SLORule,
    SLOSpecError,
    SLOWatchdog,
    default_slos,
    parse_slos,
)
from repro.common.tracing import Tracer
from repro.desktop.dejaview import RecordingConfig
from repro.server.fleet import CRASHED, RECOVERED, Fleet, SessionQuotas
from repro.workloads import get_workload, run_scenario


class TestRecorderBasics:
    def test_record_and_replay_in_seq_order(self):
        recorder = FlightRecorder()
        clock = VirtualClock()
        scope = recorder.scope("alice", clock)
        scope.record(REC_EVENT, {"event": "hello"})
        clock.advance_us(250)
        scope.record(REC_SCHED, {"picked": "alice"})
        replay = recorder.replay()
        assert replay.verified
        assert [r.seq for r in replay.records] == [0, 1]
        assert replay.records[0].owner == "alice"
        assert replay.records[0].data == {"event": "hello"}
        assert replay.records[1].virtual_us == 250
        assert replay.records[1].type_name == "SCHED"
        assert recorder.records_written == 2

    def test_wall_clock_stamps_are_monotonic(self):
        recorder = FlightRecorder()
        scope = recorder.scope("a", VirtualClock())
        for _ in range(5):
            scope.record(REC_EVENT, {"event": "x"})
        walls = [r.wall_ns for r in recorder.replay().records]
        assert walls == sorted(walls)

    def test_multi_owner_interleave(self):
        recorder = FlightRecorder()
        fast, slow = VirtualClock(), VirtualClock()
        a = recorder.scope("a", fast)
        b = recorder.scope("b", slow)
        fast.advance_us(10_000)
        a.record(REC_EVENT, {"event": "a1"})
        b.record(REC_EVENT, {"event": "b1"})
        replay = recorder.replay()
        # Global seq orders across owners even though the virtual stamps
        # come from different clocks.
        assert [r.owner for r in replay.records] == ["a", "b"]
        assert replay.records[0].virtual_us > replay.records[1].virtual_us
        assert replay.by_owner("a")[0].data["event"] == "a1"

    def test_counter_deltas_are_per_owner_and_sparse(self):
        recorder = FlightRecorder()
        clock = VirtualClock()
        a = recorder.scope("a", clock)
        b = recorder.scope("b", clock)
        a.record_counter_deltas({"x": 3, "y": 0})
        a.record_counter_deltas({"x": 3, "y": 2})  # only y moved
        a.record_counter_deltas({"x": 3, "y": 2})  # nothing moved: no record
        b.record_counter_deltas({"x": 5})  # b's baseline is its own
        records = recorder.replay().of_type(REC_COUNTERS)
        assert [r.data["deltas"] for r in records] == [
            {"x": 3}, {"y": 2}, {"x": 5}]
        assert [r.owner for r in records] == ["a", "a", "b"]

    def test_span_sink_journals_closed_spans(self):
        recorder = FlightRecorder()
        clock = VirtualClock()
        tracer = Tracer(clock)
        tracer.sink = recorder.scope("s", clock).span_sink()
        with tracer.span("outer"):
            clock.advance_us(100)
            with tracer.span("inner", pages=3):
                clock.advance_us(40)
        spans = recorder.replay().of_type(REC_SPAN)
        # Children close first.
        assert [s.data["name"] for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner.data["dur_us"] == 40
        assert inner.data["depth"] == 1
        assert inner.data["parent"] == "outer"
        assert inner.data["attrs"] == {"pages": 3}
        assert outer.data["dur_us"] == 140
        assert outer.data["depth"] == 0
        assert "parent" not in outer.data

    def test_null_objects_are_inert(self):
        assert resolve_flightrec(None) is NULL_FLIGHTREC
        recorder = FlightRecorder()
        assert resolve_flightrec(recorder) is recorder
        assert not NULL_FLIGHTREC
        assert NULL_FLIGHTREC.scope("x", VirtualClock()) is NULL_SCOPE
        assert not NULL_SCOPE.active
        # The sink stays None so the tracer keeps its single-check path.
        assert NULL_SCOPE.span_sink() is None
        NULL_SCOPE.record(REC_EVENT, {"event": "dropped"})
        NULL_SCOPE.record_counter_deltas({"x": 1})
        assert NULL_FLIGHTREC.replay().records == []

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(segment_bytes=10)
        with pytest.raises(ValueError):
            FlightRecorder(max_segments=0)


class TestRingJournal:
    def _fill(self, recorder, n, payload="x" * 64):
        scope = recorder.scope("owner", VirtualClock())
        for i in range(n):
            scope.record(REC_EVENT, {"event": payload, "i": i})

    def test_rotation_bounds_disk_and_keeps_newest(self, tmp_path):
        recorder = FlightRecorder(directory=str(tmp_path),
                                  segment_bytes=2048, max_segments=2)
        self._fill(recorder, 200)
        names = sorted(os.listdir(tmp_path))
        assert len(names) <= 3  # max_segments closed + 1 active
        assert all(n.startswith("flight-") and n.endswith(".djj")
                   for n in names)
        replay = recorder.replay()
        assert replay.verified
        # The ring dropped the oldest history but kept the newest.
        assert replay.records[-1].data["i"] == 199
        assert replay.records[0].data["i"] > 0
        assert len(replay.records) < 200

    def test_in_memory_ring_rotates_too(self):
        recorder = FlightRecorder(segment_bytes=2048, max_segments=1)
        self._fill(recorder, 100)
        assert len(recorder._segments) <= 2
        replay = recorder.replay()
        assert replay.verified
        assert replay.records[-1].data["i"] == 99

    def test_torn_tail_is_detected_and_dropped(self, tmp_path):
        recorder = FlightRecorder(directory=str(tmp_path))
        self._fill(recorder, 10)
        path = os.path.join(tmp_path, sorted(os.listdir(tmp_path))[-1])
        with open(path, "ab") as fh:
            fh.write(b"\x01\x02\x03 torn half-record")
        replay = replay_journal(str(tmp_path))
        assert not replay.verified
        assert replay.torn_tail_bytes > 0
        assert len(replay.records) == 10  # the intact prefix survives

    def test_truncated_record_drops_only_the_tail(self, tmp_path):
        recorder = FlightRecorder(directory=str(tmp_path))
        self._fill(recorder, 10)
        path = os.path.join(tmp_path, sorted(os.listdir(tmp_path))[-1])
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 3)  # tear the last record's CRC trailer
        replay = replay_journal(str(tmp_path))
        assert not replay.verified
        assert len(replay.records) == 9
        assert replay.records[-1].data["i"] == 8

    def test_resume_continues_seq_and_truncates_torn_tail(self, tmp_path):
        first = FlightRecorder(directory=str(tmp_path))
        self._fill(first, 10)
        # kill -9: no close(); a torn half-record at the tail.
        path = os.path.join(tmp_path, sorted(os.listdir(tmp_path))[-1])
        with open(path, "ab") as fh:
            fh.write(b"\xde\xad torn")
        second = FlightRecorder(directory=str(tmp_path))
        assert second.resumed_records == 10
        assert second.resume_truncated_bytes > 0
        second.scope("recovery", VirtualClock()).record(
            REC_RECOVERY, {"action": "post-crash"})
        replay = replay_journal(str(tmp_path))
        assert replay.verified  # the torn tail was truncated away
        assert len(replay.records) == 11
        # One timeline: seq continues after the pre-crash records.
        assert replay.records[-1].seq == 10
        assert replay.records[-1].owner == "recovery"

    def test_resume_empty_directory(self, tmp_path):
        recorder = FlightRecorder(directory=str(tmp_path))
        assert recorder.resumed_records == 0
        self._fill(recorder, 1)
        assert replay_journal(str(tmp_path)).verified

    def test_replay_missing_directory(self, tmp_path):
        replay = replay_journal(str(tmp_path / "never-created"))
        assert replay.records == [] and replay.segments == 0

    def test_replay_window_and_last(self):
        recorder = FlightRecorder()
        clock = VirtualClock()
        scope = recorder.scope("o", clock)
        for _ in range(6):
            clock.advance_us(100)
            scope.record(REC_EVENT, {"event": "t"})
        replay = recorder.replay()
        assert len(replay.last(2)) == 2
        assert replay.last(2)[-1].seq == 5
        window = replay.window_us(200, 400)
        assert [r.virtual_us for r in window] == [200, 300, 400]


class TestRecordingJournal:
    def test_session_spans_and_lifecycle_land_in_journal(self):
        recorder = FlightRecorder()
        run_scenario("gzip", units=3, recording=RecordingConfig(
            flightrec=recorder, flightrec_rollup_ticks=1))
        replay = recorder.replay()
        assert replay.verified
        span_names = {s.data["name"] for s in replay.of_type(REC_SPAN)}
        assert "tick" in span_names
        assert "checkpoint" in span_names
        events = {e.data["event"] for e in replay.of_type(REC_EVENT)}
        assert "app.launch" in events
        deltas = replay.of_type(REC_COUNTERS)
        assert deltas, "rollup_ticks=1 must emit counter deltas"
        moved = set()
        for record in deltas:
            moved.update(record.data["deltas"])
        assert "tick.count" in moved

    def test_journal_enabled_run_is_bit_identical(self):
        on = run_scenario("gzip", units=4, recording=RecordingConfig(
            flightrec=FlightRecorder(), flightrec_rollup_ticks=1))
        off = run_scenario("gzip", units=4, recording=RecordingConfig())
        assert on.duration_us == off.duration_us
        assert on.dejaview.storage_report() == off.dejaview.storage_report()
        assert on.dejaview.checkpoint_count == off.dejaview.checkpoint_count

    def test_fault_fire_precedes_crash_and_recovery_joins(self, tmp_path):
        recorder = FlightRecorder(directory=str(tmp_path))
        plan = FaultPlan()
        plan.add("storage.cas.page_append", after=2)
        config = RecordingConfig(fault_plan=plan, flightrec=recorder)
        run, steps = get_workload("web").start(recording=config, units=4)
        with pytest.raises(InjectedCrash):
            for _ in steps:
                pass
        # The fired failpoint is journaled (and flushed) before the
        # injected exception unwinds: the pre-crash timeline explains
        # the crash even if nothing ever runs again.
        pre = replay_journal(str(tmp_path))
        faults = pre.of_type(REC_FAULT)
        assert faults
        assert faults[0].data["site"] == "storage.cas.page_append"
        assert not pre.of_type(REC_RECOVERY)

        run.dejaview.recover()
        post = replay_journal(str(tmp_path))
        assert post.verified
        actions = [r.data["action"] for r in post.of_type(REC_RECOVERY)]
        assert actions[0] == "recover.begin"
        assert actions[-1] == "recover.done"
        done = post.of_type(REC_RECOVERY)[-1]
        assert done.data["ok"] is True
        assert faults[0].seq < post.of_type(REC_RECOVERY)[0].seq


class TestFleetJournal:
    def _crashing_fleet(self, tmp_path, **fleet_kwargs):
        fleet = Fleet(seed=1, rollup_every=8,
                      flightrec=FlightRecorder(directory=str(tmp_path)),
                      **fleet_kwargs)
        plan = FaultPlan()
        plan.add("storage.cas.page_append", after=2)
        fleet.admit("alice", "web", units=4, fault_plan=plan)
        fleet.admit("bob", "gzip", units=6)
        fleet.run_to_completion()
        return fleet

    def test_post_mortem_after_member_crash(self, tmp_path):
        fleet = self._crashing_fleet(tmp_path)
        assert fleet.member("alice").state == CRASHED

        # The acceptance path: read the surviving bytes alone, as a
        # fresh process would after the host died.
        replay = replay_journal(str(tmp_path))
        assert replay.verified
        seqs = [r.seq for r in replay.records]
        assert seqs == sorted(set(seqs))
        sched = replay.of_type(REC_SCHED)
        assert sched and all(r.owner == "fleet" for r in sched)
        assert {r.data["picked"] for r in sched} == {"alice", "bob"}
        faults = replay.of_type(REC_FAULT)
        assert faults[0].owner == "alice"
        assert faults[0].data["site"] == "storage.cas.page_append"
        crash_events = [e for e in replay.of_type(REC_EVENT)
                        if e.data.get("event") == "session.crashed"]
        assert crash_events[0].data["session"] == "alice"
        assert crash_events[0].data["site"] == "storage.cas.page_append"
        # The crash is containment: bob's timeline continues after it.
        bob_after = [r for r in replay.records
                     if r.owner in ("bob", "fleet")
                     and r.seq > crash_events[0].seq]
        assert bob_after

        timeline = format_post_mortem(replay, last=30)
        assert "CRC prefix verified" in timeline[0]
        assert any("storage.cas.page_append" in line for line in timeline)
        assert any("session.crashed" in line for line in timeline)

    def test_recovery_extends_the_same_timeline(self, tmp_path):
        fleet = self._crashing_fleet(tmp_path)
        before = replay_journal(str(tmp_path)).records[-1].seq
        fleet.recover_session("alice")
        assert fleet.member("alice").state == RECOVERED
        replay = replay_journal(str(tmp_path))
        assert replay.verified
        recoveries = replay.of_type(REC_RECOVERY)
        fleet_level = [r for r in recoveries
                       if r.data.get("action") == "fleet.recover_session"]
        assert fleet_level and fleet_level[0].data["session"] == "alice"
        assert fleet_level[0].seq > before
        # Member-level recover.begin/done ride along under alice's owner.
        assert any(r.owner == "alice" for r in recoveries)

    def test_quota_throttle_is_journaled(self, tmp_path):
        fleet = Fleet(seed=0, rollup_every=0,
                      flightrec=FlightRecorder(directory=str(tmp_path)),
                      quotas=SessionQuotas(checkpoint_bytes=1))
        fleet.admit("s00", "web", units=3)
        fleet.run_to_completion()
        replay = replay_journal(str(tmp_path))
        quotas = replay.of_type(REC_QUOTA)
        assert quotas and quotas[0].data["quota"] == "checkpoint_bytes"
        assert quotas[0].data["used"] > quotas[0].data["limit"]

    def test_rollup_cadence_emits_member_counter_deltas(self, tmp_path):
        fleet = Fleet(seed=0, rollup_every=4,
                      flightrec=FlightRecorder(directory=str(tmp_path)))
        fleet.admit("s00", "gzip", units=6)
        fleet.run_to_completion()
        deltas = replay_journal(str(tmp_path)).of_type(REC_COUNTERS)
        owners = {r.owner for r in deltas}
        assert "fleet" in owners and "s00" in owners

    def test_fleet_is_bit_identical_with_journal(self):
        from repro.workloads.fleet_wl import run_fleet

        plain = run_fleet(3, seed=2)
        journaled = run_fleet(3, seed=2, flightrec=FlightRecorder(),
                              watchdog=SLOWatchdog())
        assert plain.clock.now_us == journaled.clock.now_us
        for a, b in zip(plain.members(), journaled.members()):
            assert a.session.clock.now_us == b.session.clock.now_us
            assert a.dejaview.storage_report() == b.dejaview.storage_report()

    def test_stats_reports_journal_and_slo_sections(self, tmp_path):
        fleet = Fleet(seed=0, flightrec=FlightRecorder(),
                      watchdog=SLOWatchdog())
        fleet.admit("s00", "gzip", units=4)
        fleet.run_to_completion()
        stats = fleet.stats()
        assert stats["journal"]["records_written"] > 0
        assert stats["slo"]["evaluations"] >= 1
        names = {v["name"] for v in stats["slo"]["verdicts"]}
        assert names == {"downtime_p95", "dedup_ratio", "recovery_rate"}


class TestExports:
    def _journal_with_spans(self):
        recorder = FlightRecorder()
        clock = VirtualClock()
        scope = recorder.scope("alice", clock)
        tracer = Tracer(clock)
        tracer.sink = scope.span_sink()
        with tracer.span("checkpoint", checkpoint_id=1):
            clock.advance_us(500)
            with tracer.span("capture"):
                clock.advance_us(200)
        scope.record(REC_FAULT, {"site": "lfs.append.mid_block",
                                 "mode": "crash", "hit": 3})
        return recorder.replay().records

    def test_chrome_trace_complete_events(self):
        events = chrome_trace_events(self._journal_with_spans())
        complete = [e for e in events if e["ph"] == "X"]
        by_name = {e["name"]: e for e in complete}
        assert by_name["capture"]["ts"] == 500
        assert by_name["capture"]["dur"] == 200
        assert by_name["checkpoint"]["ts"] == 0
        assert by_name["checkpoint"]["dur"] == 700
        assert by_name["checkpoint"]["args"]["checkpoint_id"] == 1
        assert all(e["pid"] == "alice" for e in complete)
        # Nesting is ts/dur containment within one pid/tid row.
        assert (by_name["checkpoint"]["ts"] <= by_name["capture"]["ts"]
                and by_name["capture"]["ts"] + by_name["capture"]["dur"]
                <= by_name["checkpoint"]["ts"] + by_name["checkpoint"]["dur"])

    def test_chrome_trace_instants_and_metadata(self):
        events = chrome_trace_events(self._journal_with_spans())
        instants = [e for e in events if e["ph"] == "i"]
        assert instants[0]["name"] == "fault:lfs.append.mid_block"
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "alice"
        without = chrome_trace_events(self._journal_with_spans(),
                                      instants=False)
        assert not [e for e in without if e["ph"] == "i"]

    def test_chrome_trace_json_document(self):
        document = json.loads(chrome_trace_json(self._journal_with_spans()))
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["time_domain"] == "virtual_us"
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("checkpoint.downtime_us") == \
            "dejaview_checkpoint_downtime_us"
        assert sanitize_metric_name("a-b c", prefix="") == "a_b_c"
        assert sanitize_metric_name("9lives", prefix="") == "_9lives"

    def test_prometheus_text_families(self):
        snapshot = {
            "counters": {"fleet.steps": 12},
            "gauges": {"queue.depth": 3},
            "histograms": {
                "checkpoint.downtime_us": {
                    "count": 4, "sum": 100.0, "p50": 20.0, "p95": 40.0,
                    "p99": 41.0},
                "never.observed": {"count": 0, "sum": 0},
            },
        }
        body = prometheus_text(snapshot, labels={"fleet_seed": 7})
        assert '# TYPE dejaview_fleet_steps counter' in body
        assert 'dejaview_fleet_steps{fleet_seed="7"} 12' in body
        assert '# TYPE dejaview_queue_depth gauge' in body
        assert ('dejaview_checkpoint_downtime_us'
                '{fleet_seed="7",quantile="0.95"} 40.0') in body
        assert 'dejaview_checkpoint_downtime_us_count{fleet_seed="7"} 4' \
            in body
        assert "never_observed" not in body
        assert body.endswith("\n")


class TestSLO:
    def test_parse_shorthand(self):
        rule = SLORule.parse("downtime_p95<=20000")
        assert rule.source == "histogram"
        assert rule.metric == "checkpoint.downtime_us"
        assert rule.stat == "p95"
        assert rule.op == "<=" and rule.threshold == 20000.0

    def test_parse_explicit_forms(self):
        rule = SLORule.parse("counter:fleet.sessions_crashed<=0")
        assert rule.source == "counter" and rule.stat is None
        rule = SLORule.parse("histogram:fleet.step_us:p50<900000")
        assert rule.stat == "p50" and rule.op == "<"
        rule = SLORule.parse("derived:dedup_ratio>=0.2")
        assert rule.source == "derived"

    def test_parse_errors(self):
        with pytest.raises(SLOSpecError):
            SLORule.parse("downtime_p95=20000")  # no comparison op
        with pytest.raises(SLOSpecError):
            SLORule.parse("downtime_p95<=soon")  # bad threshold
        with pytest.raises(SLOSpecError):
            SLORule.parse("tarot:cups<=3")  # unknown source
        with pytest.raises(SLOSpecError):
            SLORule("x", "histogram", "m", "<=", 1.0)  # stat required
        with pytest.raises(SLOSpecError):
            SLORule("x", "counter", "m", "~=", 1.0)  # unknown op

    def test_parse_slos_list(self):
        rules = parse_slos("downtime_p95<=1; dedup_ratio>=0.5 ;")
        assert [r.name for r in rules] == ["downtime_p95", "dedup_ratio"]

    def test_default_rules(self):
        assert [r.name for r in default_slos()] == [
            "downtime_p95", "dedup_ratio", "recovery_rate"]

    def test_no_data_is_no_verdict_and_no_alert(self):
        watchdog = SLOWatchdog([SLORule.parse("downtime_p95<=1")])
        verdicts = watchdog.evaluate({"histograms": {}})
        assert verdicts[0]["ok"] is None
        assert watchdog.alerts_emitted == 0
        assert watchdog.standing() == {"downtime_p95": None}

    def test_transitions_alert_once_each_way(self):
        recorder = FlightRecorder()
        scope = recorder.scope("fleet", VirtualClock())
        watchdog = SLOWatchdog([SLORule.parse("dedup_ratio>=0.5")],
                               flightscope=scope)
        healthy = {"derived": {"dedup_ratio": 0.8}}
        sick = {"derived": {"dedup_ratio": 0.1}}
        watchdog.evaluate(healthy)  # first sight, healthy: silent
        watchdog.evaluate(sick)     # -> violated
        watchdog.evaluate(sick)     # steady state: silent
        watchdog.evaluate(healthy)  # -> resolved
        assert watchdog.alerts_emitted == 2
        alerts = recorder.replay().of_type(REC_ALERT)
        assert [a.data["state"] for a in alerts] == ["violated", "resolved"]
        assert alerts[0].data["rule"] == "dedup_ratio"
        assert alerts[0].data["value"] == 0.1

    def test_first_sight_violation_alerts(self):
        watchdog = SLOWatchdog([SLORule.parse("crash_count<=0")])
        watchdog.evaluate({"counters": {"fleet.sessions_crashed": 2}})
        assert watchdog.alerts_emitted == 1
        assert watchdog.standing() == {"crash_count": False}

    def test_fleet_emits_alert_records(self, tmp_path):
        fleet = Fleet(seed=0, rollup_every=4,
                      flightrec=FlightRecorder(directory=str(tmp_path)),
                      watchdog=SLOWatchdog(
                          [SLORule.parse("dedup_ratio>=0.999")]))
        fleet.admit("s00", "web", units=3)
        fleet.admit("s01", "gzip", units=4)
        fleet.run_to_completion()
        fleet.stats()
        assert fleet.watchdog.standing()["dedup_ratio"] is False
        alerts = replay_journal(str(tmp_path)).of_type(REC_ALERT)
        assert alerts and alerts[0].data["state"] == "violated"
        metrics = fleet.telemetry.metrics.counter("fleet.slo_alerts")
        assert metrics.value == fleet.watchdog.alerts_emitted
