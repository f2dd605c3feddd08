"""Checkpoint thinning economics: storage returned vs replay paid.

Thinning trades stored checkpoint bytes for re-execution time: an
age-tiered :class:`ThinningPolicy` drops older instants' bytes behind
THINNED tombstones, and reviving one replays the event log forward from
the nearest surviving anchor (verified bit-identical against the
tombstone fingerprints).  This bench measures both sides of that trade
on a hot-churn recording — the workload shape thinning exists for, where
every checkpoint's pages are superseded by the next — and gates:

* **storage reduction at the default policy** — one pass over a
  four-minute timeline must return at least 40% of the checkpoint
  bytes (measured: ~67%);
* **replay-revive latency is bounded by the tier geometry** — the p95
  virtual replay distance a thinned revive pays must stay within the
  surviving-anchor spacing (``keep_every`` checkpoint intervals): the
  policy, not luck, bounds the revive cost.

Writes ``BENCH_thinning.json`` in the pytest root for CI artifact
upload.
"""

import gc

from benchmarks.conftest import print_table, rank_percentile, update_artifact

MB = 1e6

#: Simulated seconds of hot-churn recording for the reduction sweep.
REDUCTION_UNITS = 240
#: Shorter timeline for the revive-latency sweep (each sample replays).
REVIVE_UNITS = 60
REVIVE_KEEP_EVERY = 4
REVIVE_SAMPLES = 10

#: Acceptance gates (ISSUE: checkpoint thinning via replay).
DEFAULT_REDUCTION_GATE = 0.40
#: p95 replay distance <= surviving-anchor spacing.
REVIVE_P95_SPACING_GATE = 1.0


def _record_churn(units):
    """A hot-churn recording: every unit repaints the screen and
    rewrites the same leading heap pages, so each instant's pages are
    fully superseded by the next checkpoint (maximum thinnability)."""
    from repro.common.units import seconds
    from repro.desktop.dejaview import DejaView, RecordingConfig
    from repro.desktop.session import DesktopSession
    from repro.display.commands import Region
    from repro.display.recorder import RecorderConfig
    from repro.replay import RecordingTap

    tap = RecordingTap(meta={"script": "bench_thinning.churn",
                             "units": units})
    session = DesktopSession(width=64, height=48, replay_tap=tap)
    dejaview = DejaView(session, RecordingConfig(
        recorder_config=RecorderConfig(
            screenshot_interval_us=seconds(1))))
    editor = session.launch("editor")
    editor.focus()
    for i in range(units):
        editor.draw_fill(Region(0, 0, session.width, session.height),
                         0xFF0000 + i)
        editor.dirty_memory(4 * 4096, hot=True)
        dejaview.tick()
        session.clock.advance_us(seconds(1))
    return session, dejaview


def _driver_factory(units):
    """Replay driver re-running :func:`_record_churn`'s script (what a
    thinned revive re-executes)."""
    def factory(_meta, capture):
        def driver(tap):
            from repro.common.units import seconds
            from repro.desktop.dejaview import DejaView, RecordingConfig
            from repro.desktop.session import DesktopSession
            from repro.display.commands import Region
            from repro.display.recorder import RecorderConfig

            session = DesktopSession(width=64, height=48, replay_tap=tap)
            dejaview = DejaView(session, RecordingConfig(
                recorder_config=RecorderConfig(
                    screenshot_interval_us=seconds(1))))
            capture["session"] = session
            capture["dejaview"] = dejaview
            editor = session.launch("editor")
            editor.focus()
            for i in range(units):
                editor.draw_fill(
                    Region(0, 0, session.width, session.height),
                    0xFF0000 + i)
                editor.dirty_memory(4 * 4096, hot=True)
                dejaview.tick()
                session.clock.advance_us(seconds(1))
        return driver
    return factory


def _policies():
    from repro.checkpoint.gc import ThinningPolicy
    from repro.common.units import seconds

    rows = [("default", ThinningPolicy())]
    for keep_every in (2, 4, 8):
        rows.append((
            "keep-1-in-%d" % keep_every,
            ThinningPolicy(recent_window_us=seconds(5),
                           tiers=((None, keep_every),)),
        ))
    return rows


def test_storage_reduction_vs_policy(request):
    """Bytes returned per policy over the same hot-churn timeline; the
    acceptance gate rides on the *default* policy's row."""
    rows = []
    for label, policy in _policies():
        gc.disable()
        try:
            _session, dejaview = _record_churn(REDUCTION_UNITS)
        finally:
            gc.enable()
        storage = dejaview.storage
        before = storage.total_uncompressed_bytes
        report = dejaview.thin_checkpoints(policy=policy, compact=True)
        after = storage.total_uncompressed_bytes
        reduction = 1.0 - after / before if before else 0.0
        rows.append({
            "policy": label,
            "checkpoints": len(dejaview.engine.history),
            "thinned": len(report.thinned_images),
            "tombstones": report.tombstones,
            "skipped_required": len(report.skipped_required),
            "bytes_before": before,
            "bytes_after": after,
            "bytes_freed": report.image_bytes_freed,
            "reduction": reduction,
        })
        del dejaview, _session
        gc.collect()

    by_label = {row["policy"]: row for row in rows}
    default = by_label["default"]
    assert default["reduction"] >= DEFAULT_REDUCTION_GATE, (
        "default policy returned %.1f%% of checkpoint bytes, gate %.0f%%"
        % (100 * default["reduction"], 100 * DEFAULT_REDUCTION_GATE))
    # Sanity: more aggressive policies never return less.
    assert by_label["keep-1-in-8"]["reduction"] >= \
        by_label["keep-1-in-2"]["reduction"]

    update_artifact(request, "thinning", "storage_reduction", {
        "units": REDUCTION_UNITS,
        "rows": rows,
        "gates": {"default_reduction_min": DEFAULT_REDUCTION_GATE},
    })
    print_table(
        "thinning: storage reduction vs policy (%d s hot churn)"
        % REDUCTION_UNITS,
        ["policy", "ckpts", "thinned", "before MB", "after MB",
         "reduction"],
        [[row["policy"], row["checkpoints"], row["thinned"],
          "%.2f" % (row["bytes_before"] / MB),
          "%.2f" % (row["bytes_after"] / MB),
          "%.1f%%" % (100 * row["reduction"])]
         for row in rows],
        note="gate: default policy reduction >= %.0f%%"
             % (100 * DEFAULT_REDUCTION_GATE))


def test_revive_latency_vs_replay_distance(request):
    """Replay-revive cost per thinned instant, bucketed by replay
    distance (virtual time between the surviving anchor and the
    target).  The gate: p95 distance stays within the anchor spacing
    the policy promises — ``keep_every`` checkpoint intervals."""
    from repro.checkpoint.gc import ThinningPolicy
    from repro.common.units import seconds

    gc.disable()
    try:
        _session, dejaview = _record_churn(REVIVE_UNITS)
    finally:
        gc.enable()
    policy = ThinningPolicy(recent_window_us=seconds(2),
                            tiers=((None, REVIVE_KEEP_EVERY),))
    report = dejaview.thin_checkpoints(policy=policy, compact=True)
    assert report.thinned_images
    dejaview.reviver.replay_driver_factory = _driver_factory(REVIVE_UNITS)
    timestamps = {r.checkpoint_id: r.timestamp_us
                  for r in dejaview.engine.history}

    thinned = list(report.thinned_images)
    step = max(1, len(thinned) // REVIVE_SAMPLES)
    samples = []
    for image_id in thinned[::step][:REVIVE_SAMPLES]:
        revived = dejaview.take_me_back(timestamps[image_id])
        assert revived.replayed and revived.checkpoint_id == image_id
        samples.append({
            "checkpoint_id": image_id,
            "replay_us": revived.replay_us,
            "duration_us": revived.duration_us,
            "events_verified": revived.replay_events_verified,
        })

    distances = [s["replay_us"] for s in samples]
    durations = [s["duration_us"] for s in samples]
    spacing_us = REVIVE_KEEP_EVERY * seconds(1)
    p95_distance = rank_percentile(distances, 0.95)
    assert p95_distance <= REVIVE_P95_SPACING_GATE * spacing_us, (
        "thinned-revive p95 replay distance %dus exceeds the anchor "
        "spacing %dus" % (p95_distance, spacing_us))

    by_distance = {}
    for sample in samples:
        bucket = by_distance.setdefault(
            int(sample["replay_us"] // seconds(1)), [])
        bucket.append(sample["duration_us"])
    update_artifact(request, "thinning", "revive_latency", {
        "units": REVIVE_UNITS,
        "keep_every": REVIVE_KEEP_EVERY,
        "samples": samples,
        "replay_p50_us": rank_percentile(distances, 0.50),
        "replay_p95_us": p95_distance,
        "duration_p50_us": rank_percentile(durations, 0.50),
        "duration_p95_us": rank_percentile(durations, 0.95),
        "gates": {"replay_p95_max_us":
                  REVIVE_P95_SPACING_GATE * spacing_us},
    })
    print_table(
        "thinning: replay-revive latency vs distance (keep 1 in %d)"
        % REVIVE_KEEP_EVERY,
        ["distance s", "revives", "duration p50 us", "duration p95 us"],
        [[bucket, len(values),
          rank_percentile(values, 0.50), rank_percentile(values, 0.95)]
         for bucket, values in sorted(by_distance.items())],
        note="gate: p95 replay distance <= %d us (anchor spacing)"
             % (REVIVE_P95_SPACING_GATE * spacing_us))
