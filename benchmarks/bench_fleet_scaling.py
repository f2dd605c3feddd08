"""Fleet scaling: downtime, dedup, and writeback backlog vs fleet size.

Runs the mixed-scenario fleet at N in {16, 64, 256} sessions (uniform
``units_scale`` so every N records the *same* per-member workloads) and
reports, for each size:

* the per-session checkpoint downtime p95 (worst member and the member
  running the ``web`` scenario, which is s00 at every N) — sessions run
  on independent virtual clocks and the stopped window contains *no*
  storage work (writeback is pipelined through the sharded page store's
  append queues), so downtime must NOT move as the fleet grows;
* the cross-session dedup ratio of the shared page store — the mix
  repeats scenarios, so the ratio must clear the acceptance gate
  (>= 20%) and never degrade as N grows;
* the writeback backlog p95 (bytes queued across the shard append
  queues, observed at every scheduler step) — the group-commit
  scheduler's backpressure quota must keep it flat as N scales, and the
  shutdown drain must always return it to zero.

A second section sweeps the shard count at N=16 (K in {1, 4, 8}):
sharding is a physical layout choice, so dedup ratio and downtime must
be *identical* at every K.

Writes ``BENCH_fleet.json`` in the pytest root for CI artifact upload.
"""

import gc

from benchmarks.conftest import print_table, update_artifact

MB = 1e6

FLEET_SIZES = [16, 64, 256]
SEED = 1

#: One scale for every N: the downtime-equality gate compares the s00
#: (web) member across fleet sizes, which is only meaningful when it
#: records the same number of units at every N.
UNITS_SCALE = 0.25

#: Shard counts swept at N=16.
SHARD_COUNTS = [1, 4, 8]

#: Acceptance gate: cross-session dedup ratio.
DEDUP_GATE = 0.20


def _downtime_p95(member):
    snapshot = member.dejaview.telemetry.snapshot()
    summary = snapshot["histograms"].get("checkpoint.downtime_us") or {}
    return summary.get("p95") or 0


def _run(sessions, shards=None):
    """One fleet run with the cyclic GC paused: a 256-session fleet is
    millions of long-lived objects, and CPython's generational collector
    rescans that static graph on every threshold crossing — pausing it
    changes nothing simulated (the run is deterministic either way) but
    keeps the wall time linear in N."""
    from repro.workloads import run_fleet

    kwargs = {}
    if shards is not None:
        kwargs["shards"] = shards
    gc.disable()
    try:
        return run_fleet(sessions, seed=SEED, units_scale=UNITS_SCALE,
                         **kwargs)
    finally:
        gc.enable()


def _measure(sessions, shards=None):
    fleet = _run(sessions, shards=shards)
    members = fleet.members()
    assert all(m.state == "done" for m in members)
    stats = fleet.stats()
    web = fleet.member("s00")  # s00 is web at every N
    backlog = fleet.telemetry.metrics.snapshot()["histograms"].get(
        "fleet.writeback_backlog") or {"p95": 0, "max": 0, "count": 0}
    # The acceptance criterion in one pair of numbers: the stopped
    # window is quiesce+capture+fs_snapshot only, while the storage time
    # is accounted separately as writeback_us.
    web_history = web.dejaview.engine.history
    assert all(
        r.downtime_us == r.quiesce_us + r.capture_us + r.fs_snapshot_us
        for r in web_history)
    row = {
        "sessions": sessions,
        "seed": SEED,
        "units_scale": UNITS_SCALE,
        "shards": stats["writeback"]["shards"],
        "dedup_ratio": fleet.dedup_ratio(),
        "cross_pages_deduped": fleet.cas.cross_pages_deduped,
        "cross_dedup_bytes_saved": fleet.cas.cross_dedup_bytes_saved,
        "physical_page_bytes": stats["cas"]["physical_uncompressed_bytes"],
        "service_clock_us": stats["service_clock_us"],
        "downtime_p95_web_us": _downtime_p95(web),
        "downtime_p95_worst_us": max(_downtime_p95(m) for m in members),
        "rollup_downtime_p95_us": stats["rollup"]["histograms"]
        ["checkpoint.downtime_us"]["p95"],
        "web_writeback_us_total": sum(r.writeback_us for r in web_history),
        "writeback_backlog_p95_bytes": backlog["p95"],
        "writeback_backlog_max_bytes": backlog["max"],
        "writeback_backlog_end_bytes": stats["writeback"]["backlog_bytes"],
        "max_backlog_bytes": stats["writeback"]["max_backlog_bytes"],
        "flush_batches": stats["writeback"]["flush_batches"],
        "flush_bytes": stats["writeback"]["flush_bytes"],
        "backlog_force_flushes": stats["writeback"]
        ["backlog_force_flushes"],
    }
    del fleet, members, stats, web
    gc.collect()  # release this fleet before the next (bigger) one
    return row


def test_fleet_scaling(request):
    """Per-session downtime and dedup are flat in fleet size, and the
    group-commit writeback keeps the queue backlog bounded: the
    scheduler interleaves virtual clocks and pipelines storage, so a
    bigger fleet never inflates a member's stopped window."""
    results = [_measure(n) for n in FLEET_SIZES]

    rows = [
        [
            str(r["sessions"]),
            "%.1f%%" % (r["dedup_ratio"] * 100),
            "%.2f" % (r["physical_page_bytes"] / MB),
            "%.2f" % (r["downtime_p95_web_us"] / 1000.0),
            "%.2f" % (r["web_writeback_us_total"] / 1000.0),
            "%.1f" % (r["writeback_backlog_p95_bytes"] / 1024.0),
            str(r["flush_batches"]),
            "%.2f" % (r["service_clock_us"] / 1e6),
        ]
        for r in results
    ]
    print_table(
        "Fleet scaling -- downtime, dedup, writeback backlog",
        ["N", "dedup", "phys MB", "web p95 ms", "web wb ms",
         "backlog p95 KiB", "flushes", "svc clock s"],
        rows,
        note="gates: dedup >= %.0f%% and non-decreasing; web downtime "
             "p95 identical at every N (storage time excluded); backlog "
             "p95 flat in N; queues drained at shutdown"
             % (DEDUP_GATE * 100),
    )

    by_n = {r["sessions"]: r for r in results}

    # Dedup: clears the gate everywhere and never degrades as N grows.
    for n in FLEET_SIZES:
        assert by_n[n]["dedup_ratio"] >= DEDUP_GATE, (
            "N=%d dedup %.3f below gate" % (n, by_n[n]["dedup_ratio"]))
    for smaller, larger in zip(FLEET_SIZES, FLEET_SIZES[1:]):
        assert by_n[larger]["dedup_ratio"] >= by_n[smaller]["dedup_ratio"]
        assert by_n[larger]["cross_dedup_bytes_saved"] > \
            by_n[smaller]["cross_dedup_bytes_saved"]

    # Isolation in time: the web member's downtime p95 is the same
    # number no matter how many other sessions the fleet interleaves —
    # and its storage time is nonzero but accounted *outside* the
    # stopped window (writeback_us separate; checked per-checkpoint in
    # _measure).
    web_p95 = {r["downtime_p95_web_us"] for r in results}
    assert len(web_p95) == 1, "downtime varied with fleet size: %s" % (
        sorted(web_p95),)
    for r in results:
        assert r["web_writeback_us_total"] > 0

    # Writeback backlog: flat in N.  The quota is a flush *trigger*, not
    # an observation ceiling — one checkpoint can enqueue more than the
    # quota in a single step before the scheduler reacts — so the gate
    # is that the per-step p95 never *grows* with fleet size (a bigger
    # fleet takes more steps between any one member's checkpoints, so
    # queues drain more often relative to observations), and that the
    # shutdown barrier always drains to zero.
    baseline_p95 = by_n[FLEET_SIZES[0]]["writeback_backlog_p95_bytes"]
    for r in results:
        assert r["writeback_backlog_p95_bytes"] <= baseline_p95, (
            "N=%d backlog p95 %d grew past the N=%d baseline %d"
            % (r["sessions"], r["writeback_backlog_p95_bytes"],
               FLEET_SIZES[0], baseline_p95))
        assert r["writeback_backlog_end_bytes"] == 0
        assert r["flush_batches"] > 0

    update_artifact(request, "fleet", "scaling", results)


def test_shard_count_sweep(request):
    """Sharding is physical only: at fixed N, every shard count yields
    identical dedup ratio and downtime (the digests move between
    extents, never between owners or clocks)."""
    results = [_measure(16, shards=k) for k in SHARD_COUNTS]

    print_table(
        "Shard sweep at N=16 -- layout must not move a logical number",
        ["K", "dedup", "web p95 ms", "backlog p95 KiB", "flushes"],
        [
            [
                str(r["shards"]),
                "%.3f%%" % (r["dedup_ratio"] * 100),
                "%.3f" % (r["downtime_p95_web_us"] / 1000.0),
                "%.1f" % (r["writeback_backlog_p95_bytes"] / 1024.0),
                str(r["flush_batches"]),
            ]
            for r in results
        ],
        note="gates: dedup ratio and downtime p95 exactly equal across "
             "K; queues drained at shutdown",
    )

    dedup = {r["dedup_ratio"] for r in results}
    assert len(dedup) == 1, "dedup ratio varied with shard count: %s" % (
        sorted(dedup),)
    downtime = {r["downtime_p95_web_us"] for r in results}
    assert len(downtime) == 1, \
        "downtime p95 varied with shard count: %s" % (sorted(downtime),)
    physical = {r["physical_page_bytes"] for r in results}
    assert len(physical) == 1, "physical bytes varied with shard count"
    for r in results:
        assert r["writeback_backlog_end_bytes"] == 0

    update_artifact(request, "fleet", "shard_sweep", results)
