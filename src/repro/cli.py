"""Command-line interface.

Usage::

    python -m repro.cli scenarios
    python -m repro.cli run web [--units N] [--no-display] [--no-index]
                                [--no-checkpoints] [--policy] [--compress]
    python -m repro.cli stats web [--units N] [--faults SPEC]
    python -m repro.cli doctor web [--faults SPEC] [--seed N]
                                   [--post-mortem] [--journal-dir DIR]
    python -m repro.cli replay web [--units N] [--from-checkpoint ID]
                                   [--verify] [--faults SPEC] [--seed N]
                                   [--log-out FILE] [--report-out FILE]
    python -m repro.cli thin web [--units N] [--recent-window S]
                                 [--tiers SPEC] [--verify] [--crash]
    python -m repro.cli serve [--sessions N] [--seed S] [--units-scale F]
                              [--journal-dir DIR] [--trace-out FILE]
                              [--prom-out FILE] [--slo SPEC]
    python -m repro.cli fleet-stats [--sessions N] [--seed S] [...]
    python -m repro.cli top [--sessions N] [--frames K]
                            [--steps-per-frame M] [...]
    python -m repro.cli demo
    python -m repro.cli figures

``run`` executes one Table 1 scenario and prints a report: simulated
duration, checkpoint latency summary, storage growth decomposition, and a
sample search.  ``stats`` runs a scenario and prints its telemetry
snapshot (counters, histogram summaries, recent span trees).  ``demo``
runs a 30-second guided record/search/revive tour.

``replay`` records one scenario run with the deterministic-replay event
log enabled, then re-executes it in lockstep and verifies every logged
nondeterministic event — framebuffer SHA-1s and checkpoint fingerprints
included.  With ``--faults`` the recorded run crashes/recovers first and
the surviving log prefix must still re-derive bit-identically (the
replay-divergence oracle); ``--from-checkpoint`` starts verification at
that checkpoint's anchor.  Exit status 1 on divergence.

``doctor --post-mortem`` replays the flight-recorder journal after the
crash-inject/recover cycle and prints the last-K-events timeline; ``top``
is the live fleet dashboard (per-member downtime p95, dedup ratio,
scheduler queue depth, quota/throttle state, SLO standings), refreshing
on the service clock.  ``--trace-out`` writes a Chrome trace-event JSON
(load it in Perfetto / ``chrome://tracing``); ``--prom-out`` writes the
fleet rollup in the Prometheus text exposition format.

``--json`` (accepted globally or after any subcommand) switches ``run``
and ``stats`` to machine-readable JSON on stdout.
"""

import argparse
import json
import sys

from repro.common.units import format_bytes, format_duration_us, format_rate
from repro.desktop.dejaview import RecordingConfig
from repro.workloads import SCENARIOS, get_workload
from repro.workloads import scenarios as _scenarios  # noqa: F401 (registry)

FIGURES = {
    "table1": "benchmarks/bench_table1_scenarios.py",
    "fig2": "benchmarks/bench_fig2_overhead.py",
    "fig3": "benchmarks/bench_fig3_checkpoint_latency.py",
    "fig4": "benchmarks/bench_fig4_storage_growth.py",
    "fig5": "benchmarks/bench_fig5_browse_search.py",
    "fig6": "benchmarks/bench_fig6_playback_speedup.py",
    "fig7": "benchmarks/bench_fig7_revive_latency.py",
    "policy": "benchmarks/bench_policy_effectiveness.py",
    "ablation": "benchmarks/bench_ablation_optimizations.py",
    "screencast": "benchmarks/bench_baseline_screencast.py",
}


def _add_scenario_args(sub):
    """Scenario selection shared by ``run`` and ``stats``: a positional
    name or an equivalent ``--scenario`` option."""
    sub.add_argument("scenario", nargs="?", default=None,
                     help="scenario name (see 'scenarios')")
    sub.add_argument("--scenario", dest="scenario_opt", default=None,
                     metavar="NAME",
                     help="scenario name (alternative to the positional)")
    sub.add_argument("--units", type=int, default=None,
                     help="work units (default: the scenario's standard run)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DejaView reproduction (SOSP 2007) command line",
    )
    # Global: accepted before the subcommand; the per-subcommand copies
    # below use SUPPRESS so "repro run web --json" works too without the
    # subparser default overwriting this one.
    parser.add_argument("--json", action="store_true", default=False,
                        help="emit machine-readable JSON (run / stats)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenarios", help="list the Table 1 workload scenarios")

    run = sub.add_parser("run", help="run one scenario and print a report")
    _add_scenario_args(run)
    run.add_argument("--no-display", action="store_true",
                     help="disable display recording")
    run.add_argument("--no-index", action="store_true",
                     help="disable text indexing")
    run.add_argument("--no-checkpoints", action="store_true",
                     help="disable checkpointing")
    run.add_argument("--policy", action="store_true",
                     help="checkpoint under the section 5.1.3 policy "
                          "instead of fixed 1 Hz")
    run.add_argument("--compress", action="store_true",
                     help="account compressed checkpoint storage")

    stats = sub.add_parser(
        "stats", help="run one scenario and print its telemetry snapshot")
    _add_scenario_args(stats)
    stats.add_argument("--spans", type=int, default=4,
                       help="recent root spans to include (default 4)")
    stats.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="run under a fault plan (io-mode rules recommended; the "
             "per-site hit/fired table joins the output)")
    stats.add_argument("--seed", type=int, default=0,
                       help="RNG seed for probabilistic fault rules")

    doctor = sub.add_parser(
        "doctor",
        help="run a scenario under fault injection, then recover and "
             "verify the record (fsck for the whole recording)")
    _add_scenario_args(doctor)
    doctor.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault plan, e.g. 'lfs.append.mid_block:after=3' or "
             "'recorder.log.append:mode=io,p=0.2,repeat;"
             "storage.store.pre_commit:after=2' "
             "(default: no faults, recovery still runs)")
    doctor.add_argument("--seed", type=int, default=0,
                        help="RNG seed for probabilistic fault rules")
    doctor.add_argument("--list-failpoints", action="store_true",
                        help="print the registered failpoint catalog and exit")
    doctor.add_argument(
        "--post-mortem", action="store_true",
        help="journal the run in the flight recorder and replay the "
             "last-K-events timeline after recovery")
    doctor.add_argument("--journal-dir", default=None, metavar="DIR",
                        help="flight-recorder journal directory (default: "
                             "in-memory ring; a directory survives kill -9)")
    doctor.add_argument("--last", type=int, default=40,
                        help="post-mortem window: events to replay "
                             "(default 40)")
    doctor.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write the journal's span stream as Chrome "
                             "trace-event JSON (Perfetto-loadable)")

    replay = sub.add_parser(
        "replay",
        help="record a scenario, then re-execute it in lockstep and "
             "verify bit-identical framebuffer/checkpoint fingerprints "
             "(the deterministic-replay divergence oracle)")
    _add_scenario_args(replay)
    replay.add_argument("--from-checkpoint", type=int, default=None,
                        metavar="ID",
                        help="start verification at this checkpoint's "
                             "anchor (fast-forwards the re-derivation)")
    replay.add_argument("--verify", action="store_true",
                        help="strict mode: demand a complete replay "
                             "covering at least one checkpoint anchor, "
                             "not just the absence of divergence")
    replay.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="record under a fault plan (see doctor --faults), recover, "
             "then replay the surviving log prefix with the same plan "
             "re-armed")
    replay.add_argument("--seed", type=int, default=0,
                        help="RNG seed for probabilistic fault rules")
    replay.add_argument("--log-out", default=None, metavar="FILE",
                        help="write the recorded event-log bytes")
    replay.add_argument("--report-out", default=None, metavar="FILE",
                        help="write the replay report as JSON (the CI "
                             "divergence artifact)")

    thin = sub.add_parser(
        "thin",
        help="record a scenario with the replay log on, thin older "
             "checkpoints down to age-tiered anchors, and (optionally) "
             "replay-revive the tombstoned instants to verify "
             "bit-identical fingerprints")
    _add_scenario_args(thin)
    thin.add_argument("--recent-window", type=float, default=None,
                      metavar="SECONDS",
                      help="keep everything younger than this untouched "
                           "(default 5)")
    thin.add_argument("--tiers", default=None, metavar="SPEC",
                      help="age tiers as 'LIMIT:EVERY[,LIMIT:EVERY...]', "
                           "LIMIT in seconds or 'inf', e.g. '60:2,inf:4' "
                           "(the default)")
    thin.add_argument("--verify", action="store_true",
                      help="take_me_back to every thinned instant and "
                           "demand a fingerprint-verified replay-revive")
    thin.add_argument("--crash", action="store_true",
                      help="inject a crash mid-thin (thin.drop_refs), "
                           "recover, and re-run the pass — the "
                           "idempotence / fsck demo")
    thin.add_argument("--seed", type=int, default=0,
                      help="RNG seed for the fault plan (--crash)")

    def _add_fleet_args(command):
        command.add_argument("--sessions", type=int, default=4,
                             help="number of sessions to admit (default 4)")
        command.add_argument("--seed", type=int, default=0,
                             help="scheduler interleaving seed (default 0)")
        command.add_argument("--units-scale", type=float, default=1.0,
                             help="scale every session's unit count")
        command.add_argument("--shards", type=int, default=4,
                             help="consistent-hash shard count for the "
                                  "shared page store (default 4); group "
                                  "commits batch per shard")
        command.add_argument("--journal-dir", default=None, metavar="DIR",
                             help="flight-recorder journal directory "
                                  "(default: in-memory ring)")
        command.add_argument("--trace-out", default=None, metavar="FILE",
                             help="write the journal's span stream as "
                                  "Chrome trace-event JSON")
        command.add_argument("--prom-out", default=None, metavar="FILE",
                             help="write the fleet rollup in Prometheus "
                                  "text exposition format")
        command.add_argument("--slo", default=None, metavar="SPEC",
                             help="SLO watchdog rules, ';'-separated, e.g. "
                                  "'downtime_p95<=25000;dedup_ratio>=0.15' "
                                  "(default: the stock rules)")
        command.add_argument("--thin", action="store_true",
                             help="thin member checkpoints on the rollup "
                                  "cadence under the default age-tiered "
                                  "policy (fork points stay pinned)")

    serve = sub.add_parser(
        "serve",
        help="record N sessions at once under the deterministic fleet "
             "scheduler with a shared checkpoint page store")
    _add_fleet_args(serve)

    fleet_stats = sub.add_parser(
        "fleet-stats",
        help="run a fleet and print its rolled-up telemetry snapshot")
    _add_fleet_args(fleet_stats)

    top = sub.add_parser(
        "top",
        help="live fleet dashboard: run the fleet frame by frame and "
             "render per-member state, downtime p95, dedup ratio, queue "
             "depth, and SLO standings")
    _add_fleet_args(top)
    top.add_argument("--frames", type=int, default=8,
                     help="dashboard frames to render (default 8)")
    top.add_argument("--steps-per-frame", type=int, default=16,
                     help="scheduler steps between frames (default 16)")

    storm = sub.add_parser(
        "revive-storm",
        help="fork N branches from one checkpoint of a recorded parent "
             "and run them as fleet members (section 5.2 branchable "
             "revive)")
    storm.add_argument("--branches", type=int, default=16,
                       help="simultaneous branches to fork (default 16)")
    storm.add_argument("--scenario", default="web",
                       help="parent scenario to record (default web)")
    storm.add_argument("--seed", type=int, default=0,
                       help="scheduler interleaving seed (default 0)")
    storm.add_argument("--parent-units", type=int, default=24,
                       help="parent work units before the fork point")
    storm.add_argument("--branch-units", type=int, default=4,
                       help="work units per branch after the fork")
    storm.add_argument("--crash-branch", type=int, default=None,
                       metavar="N",
                       help="kill branch N mid-fork (revive.branch.refs) "
                            "and recover it — storm resilience demo")
    storm.add_argument("--shards", type=int, default=4,
                       help="shared page store shard count (default 4)")

    sub.add_parser("demo", help="record/search/revive guided tour")
    sub.add_parser("figures", help="map of paper figures to bench files")
    for command in sub.choices.values():
        command.add_argument("--json", action="store_true",
                             default=argparse.SUPPRESS,
                             help=argparse.SUPPRESS)
    return parser


def _resolve_scenario(args):
    name = args.scenario_opt or args.scenario
    if name is None:
        print("error: a scenario is required (positional or --scenario)",
              file=sys.stderr)
        raise SystemExit(2)
    return name


def _run_scenario(args):
    """Build the recording config and run the workload (run / stats)."""
    name = _resolve_scenario(args)
    workload = get_workload(name)
    config = RecordingConfig(
        record_display=not getattr(args, "no_display", False),
        record_index=not getattr(args, "no_index", False),
        record_checkpoints=not getattr(args, "no_checkpoints", False),
        use_policy=getattr(args, "policy", False),
        compress_checkpoints=getattr(args, "compress", False),
    )
    if name == "desktop" and config.record_checkpoints:
        config.use_policy = True
    if getattr(args, "faults", None):
        # Under a fault plan the run may die mid-unit (crash) or lose a
        # unit to a transient io fault; keep the partial run — its
        # telemetry and per-site hit counters are the point.
        from repro.common.faults import FaultPlan, InjectedCrash

        config.fault_plan = FaultPlan.parse(
            args.faults, seed=getattr(args, "seed", 0))
        run, steps = workload.start(recording=config, units=args.units)
        try:
            for _ in steps:
                pass
        except (InjectedCrash, IOError):
            pass
        return name, run
    return name, workload.run(recording=config, units=args.units)


def cmd_scenarios(_args, out):
    get_workload("web")  # populate registry
    print("Table 1 scenarios:", file=out)
    for name in sorted(SCENARIOS):
        workload = SCENARIOS[name]()
        print("  %-8s %s (default %d units)" % (
            name, workload.description, workload.default_units), file=out)
    return 0


def _sample_search(dv):
    """Exercise the query path so telemetry reports index latency and the
    query-planner counters: one full-history keyword search, one windowed
    search over the recording's second half (populates
    ``index.buckets_skipped`` / ``index.postings_pruned``), and a repeat
    of the windowed query (populates ``index.interval_cache_hits``).
    Returns a summary dict or None when there is no indexed text."""
    if dv.database is None or not dv.database.vocabulary():
        return None
    from repro.index.query import Query

    database = dv.database
    vocabulary = database.vocabulary()
    word = vocabulary[len(vocabulary) // 2]
    engine = dv.search_engine()
    results = engine.search(Query.keywords(word), render=False, limit=3)
    sample = {"word": word, "hits": len(results)}
    end_us = database.clock.now_us
    if end_us > 1:
        windowed_query = Query.keywords(word, start_us=end_us // 2,
                                        end_us=end_us)
        windowed = engine.search(windowed_query, render=False, limit=3)
        engine.search(windowed_query, render=False, limit=3)  # cache hit
        sample["windowed_hits"] = len(windowed)
    return sample


def cmd_run(args, out):
    if args.json:
        name, run = _run_scenario(args)
        dv = run.dejaview
        sample = _sample_search(dv)
        report = {
            "scenario": name,
            "simulated_seconds": run.duration_seconds,
            "checkpoints": dv.checkpoint_count,
            "storage_growth_rates": run.storage_growth_rates(),
            "storage_report": dv.storage_report(),
            "telemetry": dv.telemetry_snapshot(),
        }
        if sample is not None:
            report["sample_search"] = sample
        json.dump(report, out, indent=2, default=str)
        print(file=out)
        return 0
    name = _resolve_scenario(args)
    units = args.units or get_workload(name).default_units
    print("running %s (%d units)..." % (name, units), file=out)
    _name, run = _run_scenario(args)
    dv = run.dejaview
    print("simulated duration: %.2f s" % run.duration_seconds, file=out)
    if dv.engine is not None and dv.engine.history:
        history = dv.engine.history
        avg_down = sum(r.downtime_us for r in history) / len(history)
        max_down = max(r.downtime_us for r in history)
        print("checkpoints: %d (avg downtime %s, max %s)" % (
            len(history), format_duration_us(avg_down),
            format_duration_us(max_down)), file=out)
    rates = run.storage_growth_rates()
    print("storage growth:", file=out)
    for stream in ("display", "index", "checkpoint",
                   "checkpoint_compressed", "fs"):
        print("  %-22s %s" % (stream, format_rate(rates[stream])), file=out)
    report = dv.storage_report()
    print("record footprint: display=%s index=%s checkpoints=%s" % (
        format_bytes(report["display"]),
        format_bytes(report["index"]),
        format_bytes(report["checkpoint_uncompressed"])), file=out)
    if report.get("pages_deduped"):
        print("page-store dedup: %d page(s), %s saved (%d orphan(s) "
              "reclaimed)" % (
                  report["pages_deduped"],
                  format_bytes(report["dedup_bytes_saved"]),
                  report["cas_orphans_reclaimed"]), file=out)
    sample = _sample_search(dv)
    if sample is not None:
        print("sample search %r: %d hit(s)" % (
            sample["word"], sample["hits"]), file=out)
    return 0


def _format_span(span_dict, out, depth=0):
    wall = span_dict.get("wall_ns")
    print("  %s%-28s virtual=%-12s wall=%s" % (
        "  " * depth,
        span_dict.get("name", "?"),
        format_duration_us(span_dict.get("virtual_us") or 0),
        "%.3f ms" % (wall / 1e6) if wall is not None else "?"), file=out)
    for child in span_dict.get("children", ()):
        _format_span(child, out, depth + 1)


def _print_fault_table(sites, out, indent="  "):
    """Per-site hit/fired lines, skipping never-hit sites."""
    hit = {site: counts for site, counts in sites.items()
           if counts["hits"] or counts["fired"]}
    if not hit:
        print(indent + "(no failpoints hit)", file=out)
        return
    for site, counts in sorted(hit.items()):
        print("%s%-32s hits=%-5d fired=%d" % (
            indent, site, counts["hits"], counts["fired"]), file=out)


def _print_shard_table(cas_stats, out, indent="  "):
    """Per-shard extent/backlog/flush table from a page store's
    ``stats()`` dict (``repro stats`` / ``serve`` / ``fleet-stats``)."""
    shards = cas_stats.get("shards")
    if not shards:
        return
    wb = cas_stats.get("writeback", {})
    print("%swriteback: %s, backlog %d page(s) / %s "
          "(highwater %s), %d flush batch(es) / %s flushed" % (
              indent, "async" if wb.get("async") else "sync",
              wb.get("backlog_pages", 0),
              format_bytes(wb.get("backlog_bytes", 0)),
              format_bytes(wb.get("backlog_highwater_bytes", 0)),
              wb.get("flush_batches", 0),
              format_bytes(wb.get("flush_bytes", 0))), file=out)
    print("%s%5s %7s %10s %10s %7s %7s %8s %9s" % (
        indent, "shard", "extents", "live", "dead", "queued",
        "flushes", "maxbatch", "highwater"), file=out)
    for row in shards:
        print("%s%5d %7d %10s %10s %7d %7d %8d %9s" % (
            indent, row["shard"], row["extents"],
            format_bytes(row["live_bytes"]),
            format_bytes(row["dead_bytes"]), row["queued_pages"],
            row["flushes"], row["max_batch_pages"],
            format_bytes(row["backlog_highwater_bytes"])), file=out)


def cmd_stats(args, out):
    name, run = _run_scenario(args)
    _sample_search(run.dejaview)  # exercise the query path for its metrics
    snapshot = run.dejaview.telemetry_snapshot(span_limit=args.spans)
    cas_stats = run.dejaview.storage.cas.stats()
    if args.json:
        snapshot["scenario"] = name
        snapshot["page_store"] = cas_stats
        json.dump(snapshot, out, indent=2, default=str)
        print(file=out)
        return 0
    print("telemetry for %s scenario:" % name, file=out)
    print("counters:", file=out)
    for key, value in sorted(snapshot["counters"].items()):
        print("  %-36s %d" % (key, value), file=out)
    print("gauges:", file=out)
    for key, value in sorted(snapshot["gauges"].items()):
        print("  %-36s %s" % (key, value), file=out)
    print("histograms (count / p50 / p95 / max):", file=out)
    for key, summary in sorted(snapshot["histograms"].items()):
        if not summary["count"]:
            continue
        print("  %-36s %d / %.0f / %.0f / %.0f" % (
            key, summary["count"], summary["p50"], summary["p95"],
            summary["max"]), file=out)
    print("page store (%d shard(s)):" % cas_stats["shard_count"], file=out)
    _print_shard_table(cas_stats, out)
    if "faults" in snapshot:
        print("failpoints (hits / fired):", file=out)
        _print_fault_table(snapshot["faults"], out)
    bus = snapshot["event_bus"]
    print("event bus: published=%d delivered=%d errors=%d" % (
        bus["published"], bus["delivered"], bus["errors"]), file=out)
    spans = snapshot["spans"]
    print("spans: %d total, %d retained; most recent roots:" % (
        spans["span_count"], spans["retained_roots"]), file=out)
    for root in spans["recent_roots"]:
        _format_span(root, out)
    return 0


def cmd_doctor(args, out):
    """Run a scenario under fault injection, then recover and verify:
    the whole-record fsck.  Exit status 1 when the surviving checkpoint
    chain fails verification."""
    from repro.checkpoint.verify import verify_chain
    from repro.common.faults import FAILPOINTS, FaultPlan, InjectedCrash
    from repro.desktop.dejaview import DejaView
    from repro.desktop.session import DesktopSession

    if args.list_failpoints:
        if args.json:
            json.dump({"failpoints": FAILPOINTS}, out, indent=2)
            print(file=out)
            return 0
        print("registered failpoints:", file=out)
        for site in sorted(FAILPOINTS):
            print("  %-32s %s" % (site, FAILPOINTS[site]), file=out)
        return 0

    name = _resolve_scenario(args)
    workload = get_workload(name)
    plan = (FaultPlan.parse(args.faults, seed=args.seed)
            if args.faults else FaultPlan(seed=args.seed))
    flightrec = None
    if args.post_mortem or args.journal_dir is not None \
            or args.trace_out is not None:
        from repro.common.flightrec import FlightRecorder

        flightrec = FlightRecorder(directory=args.journal_dir)
    config = RecordingConfig(fault_plan=plan, flightrec=flightrec)
    # Build the session and recorder up front (instead of letting the
    # workload build them) so the references survive an injected crash.
    session = DesktopSession()
    dv = DejaView(session, config)
    crash = None
    try:
        workload.run(units=args.units, session=session, dejaview=dv)
    except InjectedCrash as exc:
        crash = exc
    except IOError as exc:
        # A transient injected fault escaped the workload driver; real
        # applications would retry.  Recovery still runs.
        crash = exc

    recovery = dv.recover()
    verdict = verify_chain(dv.storage, session.fsstore)
    playback_ok = None
    if dv.recorder is not None:
        record = dv.display_record()
        if len(record.timeline):
            engine = dv.playback_engine()
            engine.play(record.start_us, record.end_us, fastest=True)
            playback_ok = True
    search_hits = None
    if dv.database is not None and dv.database.vocabulary():
        from repro.index.query import Query

        vocabulary = dv.database.vocabulary()
        word = vocabulary[len(vocabulary) // 2]
        search_hits = len(dv.search(Query.keywords(word), render=False))

    replay = None
    if flightrec is not None:
        from repro.common.flightrec import replay_journal

        if args.journal_dir is not None:
            # Post-crash entry point: replay the surviving on-disk bytes,
            # not the live writer's state.
            replay = replay_journal(args.journal_dir)
        else:
            replay = flightrec.replay()
        if args.trace_out is not None:
            from repro.common.export import chrome_trace_json

            with open(args.trace_out, "w") as fh:
                fh.write(chrome_trace_json(replay.records))

    summary = {
        "scenario": name,
        "faults": args.faults,
        "crash": str(crash) if crash is not None else None,
        "fault_hits": plan.hit_snapshot(),
        "recovery": recovery,
        "chain_verified": verdict.ok,
        "issues": [str(issue) for issue in verdict.issues],
        "checkpoints_surviving": len(dv.storage),
        "playback_ok": playback_ok,
        "search_hits": search_hits,
    }
    if replay is not None:
        summary["post_mortem"] = replay.to_dict(last=args.last)
    if args.json:
        json.dump(summary, out, indent=2, default=str)
        print(file=out)
        return 0 if verdict.ok else 1

    print("doctor: %s scenario, faults=%s" % (name, args.faults or "none"),
          file=out)
    if crash is not None:
        print("injected: %s" % crash, file=out)
    fired = {site: counts for site, counts in plan.hit_snapshot().items()
             if counts["hits"]}
    for site, counts in sorted(fired.items()):
        print("  %-32s hits=%-5d fired=%d" % (
            site, counts["hits"], counts["fired"]), file=out)
    storage_report = recovery.get("storage", {})
    print("recovery: torn=%d chain-dropped=%d surviving=%d" % (
        len(storage_report.get("torn_dropped", ())),
        len(storage_report.get("chain_dropped", ())),
        len(dv.storage)), file=out)
    if "display" in recovery:
        display = recovery["display"]
        print("display: dropped %d log + %d screenshot bytes, "
              "%d timeline entries" % (
                  display["log_bytes_dropped"],
                  display["screenshot_bytes_dropped"],
                  display["timeline_entries_dropped"]), file=out)
    if "index" in recovery:
        print("index: dropped %d uncommitted, rebuilt %d postings" % (
            len(recovery["index"]["uncommitted_dropped"]),
            recovery["index"]["postings_rebuilt"]), file=out)
    print("chain verify: %s" % ("ok" if verdict.ok else "FAILED"), file=out)
    for issue in verdict.issues:
        print("  %s" % issue, file=out)
    if playback_ok:
        print("playback: ok (end to end)", file=out)
    if search_hits is not None:
        print("search: %d hit(s), no errors" % search_hits, file=out)
    if replay is not None:
        from repro.common.flightrec import format_post_mortem

        for line in format_post_mortem(replay, last=args.last):
            print(line, file=out)
        if args.trace_out is not None:
            print("wrote %s" % args.trace_out, file=out)
    return 0 if verdict.ok else 1


def cmd_replay(args, out):
    """Record one scenario run with the replay event log on, re-execute
    it in lockstep, and verify every logged nondeterministic event.
    Exit status 1 on divergence (or, under ``--verify``, on anything
    short of a complete anchor-covering replay)."""
    from repro.common.faults import FaultPlan
    from repro.replay import anchor_ids, record_scenario, replay

    name = _resolve_scenario(args)
    plan = FaultPlan.parse(args.faults, seed=args.seed) \
        if args.faults else None
    recording = None
    if plan is not None:
        recording = get_workload(name).default_recording()
        recording.fault_plan = plan
    recorded = record_scenario(name, units=args.units, recording=recording)
    recovery = None
    if recorded.crashed is not None:
        # The reopen path runs on a fresh host; recover appends the
        # replay barrier so verification covers the pre-crash prefix.
        if plan is not None:
            plan.disarm()
        recovery = recorded.dejaview.recover()
    data = recorded.tap.getvalue()
    if args.log_out:
        with open(args.log_out, "wb") as fh:
            fh.write(data)
    fresh = plan.fresh_copy() if plan is not None else None
    report = replay(data, from_checkpoint=args.from_checkpoint,
                    faults=fresh)
    verified = report.ok and (not args.verify or report.anchors_total >= 1)
    summary = {
        "scenario": name,
        "log_bytes": len(data),
        "anchors": anchor_ids(data),
        "crash": (str(recorded.crashed)
                  if recorded.crashed is not None else None),
        "recovery_ok": recovery["ok"] if recovery is not None else None,
        "verified": verified,
        "report": report.to_dict(),
    }
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(summary, fh, indent=2, default=str)
            fh.write("\n")
    if args.json:
        json.dump(summary, out, indent=2, default=str)
        print(file=out)
        return 0 if verified else 1
    print("replay: %s scenario, %d-byte event log, anchors %s" % (
        name, len(data), summary["anchors"]), file=out)
    if recorded.crashed is not None:
        print("injected: %s (recovery %s)" % (
            recorded.crashed, "ok" if recovery["ok"] else "FAILED"),
            file=out)
    print(report.describe(), file=out)
    if args.verify and report.ok and report.anchors_total < 1:
        print("verify: FAILED (no checkpoint anchor in the verification "
              "window)", file=out)
    if args.log_out:
        print("wrote %s" % args.log_out, file=out)
    if args.report_out:
        print("wrote %s" % args.report_out, file=out)
    return 0 if verified else 1


def _parse_tiers(spec):
    """Parse ``--tiers`` 'LIMIT:EVERY[,...]' (LIMIT in seconds, 'inf'
    for unbounded) into :class:`ThinningPolicy` tier tuples."""
    from repro.common.units import seconds

    tiers = []
    for part in spec.split(","):
        limit, _sep, every = part.partition(":")
        limit = limit.strip().lower()
        limit_us = None if limit in ("inf", "none", "*") \
            else seconds(float(limit))
        tiers.append((limit_us, int(every)))
    return tuple(tiers)


def cmd_thin(args, out):
    """Record a scenario with the replay event log on, apply an
    age-tiered thinning pass, and optionally replay-revive every
    tombstoned instant to prove the equivalence (exit 1 on any
    verification failure)."""
    from repro.checkpoint.gc import ThinningPolicy
    from repro.common.faults import FaultPlan, InjectedCrash
    from repro.common.units import seconds
    from repro.replay.replayer import record_scenario

    name = _resolve_scenario(args)
    recording = None
    plan = None
    if args.crash:
        # Armed at recording time but only ever hit inside thin():
        # the recording itself runs clean.
        plan = FaultPlan.parse("thin.drop_refs", seed=args.seed)
        recording = get_workload(name).default_recording()
        recording.fault_plan = plan
    recorded = record_scenario(name, units=args.units, recording=recording)
    dv = recorded.dejaview
    policy_kwargs = {}
    if args.recent_window is not None:
        policy_kwargs["recent_window_us"] = seconds(args.recent_window)
    if args.tiers is not None:
        policy_kwargs["tiers"] = _parse_tiers(args.tiers)
    policy = ThinningPolicy(**policy_kwargs)
    checkpoints = dv.checkpoint_count
    storage = dv.storage

    def accounted_bytes():
        # The storage's accounted format: what ``thin`` reports freeing.
        return (storage.total_compressed_bytes if storage.compress
                else storage.total_uncompressed_bytes)

    bytes_before = storage.total_compressed_bytes
    accounted_before = accounted_bytes()
    thinned_before = set(storage.thinned_ids())
    crash = None
    recovery = None
    try:
        report = dv.thin_checkpoints(policy=policy, compact=True)
    except InjectedCrash as exc:
        crash = exc
        plan.disarm()
        recovery = dv.recover()
        # Idempotent completion: the re-run selects the same survivors
        # and picks up whatever the crash interrupted.
        report = dv.thin_checkpoints(policy=policy, compact=True)
    # Report what this command did across both passes: a crashed pass
    # may already have tombstoned instants the re-run then skips.
    bytes_after = storage.total_compressed_bytes
    bytes_freed = accounted_before - accounted_bytes()
    thinned = sorted(set(storage.thinned_ids()) - thinned_before)
    verified = []
    failures = []
    if args.verify:
        from repro.checkpoint.restore import ReviveError

        timestamps = {r.checkpoint_id: r.timestamp_us
                      for r in dv.engine.history}
        for image_id in dv.storage.thinned_ids():
            if image_id not in timestamps:
                continue
            try:
                result = dv.take_me_back(timestamps[image_id])
            except ReviveError as exc:
                failures.append({"checkpoint": image_id,
                                 "error": str(exc)})
                continue
            if result.checkpoint_id == image_id and result.replayed:
                verified.append(image_id)
            else:
                failures.append({
                    "checkpoint": image_id,
                    "error": "revived %d (replayed=%s) instead"
                             % (result.checkpoint_id, result.replayed)})
    ok = not failures
    summary = {
        "scenario": name,
        "checkpoints": checkpoints,
        "thinned": thinned,
        "tombstones": report.tombstones,
        "skipped_required": list(report.skipped_required),
        "skipped_unanchored": list(report.skipped_unanchored),
        "bytes_before": bytes_before,
        "bytes_after": bytes_after,
        "bytes_freed": bytes_freed,
        "crash": str(crash) if crash is not None else None,
        "recovery_ok": recovery["ok"] if recovery is not None else None,
        "verified": verified,
        "failures": failures,
        "ok": ok,
    }
    if args.json:
        json.dump(summary, out, indent=2, default=str)
        print(file=out)
        return 0 if ok else 1
    print("thin: %s scenario, %d checkpoint(s), policy recent=%s "
          "tiers=%s" % (name, checkpoints,
                        format_duration_us(policy.recent_window_us),
                        ",".join("%s:%d" % (
                            "inf" if limit is None
                            else format_duration_us(limit), every)
                            for limit, every in policy.tiers)), file=out)
    if crash is not None:
        print("injected: %s (recovery %s, pass re-run)" % (
            crash, "ok" if recovery["ok"] else "FAILED"), file=out)
    reduction = (1.0 - bytes_after / bytes_before) if bytes_before else 0.0
    print("tombstoned %d instant(s): %s" % (
        len(thinned), thinned or "none"), file=out)
    print("storage: %s -> %s (%.1f%% reduction, %s of image bytes "
          "freed)" % (format_bytes(bytes_before),
                      format_bytes(bytes_after), 100.0 * reduction,
                      format_bytes(bytes_freed)), file=out)
    if report.skipped_required or report.skipped_unanchored:
        print("pinned: %s required by survivors, %s without a surviving "
              "anchor" % (list(report.skipped_required) or "none",
                          list(report.skipped_unanchored) or "none"),
              file=out)
    if args.verify:
        print("replay-revive: %d/%d thinned instant(s) verified "
              "bit-identical" % (len(verified),
                                 len(verified) + len(failures)), file=out)
        for failure in failures:
            print("  FAILED checkpoint %s: %s" % (
                failure["checkpoint"], failure["error"]), file=out)
    return 0 if ok else 1


def _fleet_observability(args, want_watchdog=False):
    """Extra :class:`~repro.server.fleet.Fleet` kwargs for the fleet
    observability flags: a flight recorder when journaling or trace
    export is requested, and an SLO watchdog when rules are given (or
    whenever the journal is on — alerts belong in it)."""
    kwargs = {}
    if args.journal_dir is not None or args.trace_out is not None:
        from repro.common.flightrec import FlightRecorder

        kwargs["flightrec"] = FlightRecorder(directory=args.journal_dir)
    if args.slo is not None or want_watchdog or "flightrec" in kwargs:
        from repro.common.slo import SLOWatchdog, parse_slos

        rules = parse_slos(args.slo) if args.slo else None
        kwargs["watchdog"] = SLOWatchdog(rules)
    if getattr(args, "thin", False):
        from repro.checkpoint.gc import ThinningPolicy

        kwargs["thinning"] = ThinningPolicy()
    return kwargs


def _write_fleet_exports(args, fleet, stats):
    """Write ``--trace-out`` / ``--prom-out`` files; returns the paths."""
    written = []
    if getattr(args, "trace_out", None):
        from repro.common.export import chrome_trace_json

        replay = fleet.flightrec.replay()
        with open(args.trace_out, "w") as fh:
            fh.write(chrome_trace_json(replay.records))
        written.append(args.trace_out)
    if getattr(args, "prom_out", None):
        from repro.common.export import prometheus_text

        labels = {"fleet_seed": args.seed}
        body = prometheus_text(stats["rollup"], labels=labels)
        body += prometheus_text(stats["fleet_metrics"],
                                prefix="dejaview_fleet", labels=labels)
        with open(args.prom_out, "w") as fh:
            fh.write(body)
        written.append(args.prom_out)
    return written


def _print_slo(slo, out):
    print("slo standings (%d evaluation(s), %d alert(s)):" % (
        slo["evaluations"], slo["alerts_emitted"]), file=out)
    for verdict in slo["verdicts"] or ():
        state = ("no data" if verdict["ok"] is None
                 else "ok" if verdict["ok"] else "VIOLATED")
        metric = verdict["metric"] if not verdict["stat"] \
            else "%s:%s" % (verdict["metric"], verdict["stat"])
        value = verdict["value"]
        if isinstance(value, float):
            value = "%.4g" % value
        print("  %-16s %-8s %s %s %g (value=%s)" % (
            verdict["name"], state, metric, verdict["op"],
            verdict["threshold"], value), file=out)


def _print_journal_line(stats, out):
    if "journal" in stats:
        print("flight journal: %d record(s) written, %d segment(s) "
              "retained" % (stats["journal"]["records_written"],
                            stats["journal"]["segments_retained"]),
              file=out)


def _run_fleet(args):
    from repro.workloads.fleet_wl import run_fleet

    return run_fleet(args.sessions, seed=args.seed,
                     units_scale=args.units_scale, shards=args.shards,
                     **_fleet_observability(args))


def cmd_serve(args, out):
    """Run N sessions to completion under the fleet scheduler and print
    the service-level report."""
    fleet = _run_fleet(args)
    stats = fleet.stats()
    written = _write_fleet_exports(args, fleet, stats)
    if args.json:
        json.dump(stats, out, indent=2, default=str)
        print(file=out)
        return 0
    print("fleet: %d session(s), seed %d" % (len(fleet), args.seed),
          file=out)
    print("service clock: %s (sum of per-session activity)" %
          format_duration_us(stats["service_clock_us"]), file=out)
    for name, info in stats["sessions"].items():
        print("  %-6s %-8s %-10s %3d/%3d units, %3d checkpoint(s), "
              "clock %s" % (
                  name, info["scenario"], info["state"],
                  info["units_done"], info["units_total"],
                  info["checkpoints"],
                  format_duration_us(info["clock_us"])), file=out)
    cas = stats["cas"]
    print("shared page store: %d page(s), %s physical "
          "(cross-session dedup ratio %.1f%%, %d page(s) shared)" % (
              cas["cas_pages"],
              format_bytes(cas["physical_uncompressed_bytes"]),
              100.0 * cas["dedup_ratio"],
              cas["cross_pages_deduped"]), file=out)
    _print_shard_table(cas, out)
    _print_thinning(stats, out)
    if "slo" in stats:
        _print_slo(stats["slo"], out)
    _print_journal_line(stats, out)
    for path in written:
        print("wrote %s" % path, file=out)
    return 0


def _print_thinning(stats, out):
    if "thinning" not in stats:
        return
    th = stats["thinning"]
    print("thinning: %d pass(es), %d checkpoint(s) tombstoned, %s freed"
          % (th["passes"], th["checkpoints_thinned"],
             format_bytes(th["bytes_freed"])), file=out)
    for name, count in sorted(th["tombstones"].items()):
        print("  %-6s %d tombstone(s)" % (name, count), file=out)


def cmd_fleet_stats(args, out):
    """Run a fleet and print the rolled-up telemetry (fleet counters plus
    the per-session metric rollup)."""
    fleet = _run_fleet(args)
    stats = fleet.stats()
    written = _write_fleet_exports(args, fleet, stats)
    if args.json:
        json.dump(stats, out, indent=2, default=str)
        print(file=out)
        return 0
    print("fleet telemetry (%d session(s), seed %d):" % (
        len(fleet), args.seed), file=out)
    print("scheduler counters:", file=out)
    for key, value in sorted(stats["fleet_metrics"]["counters"].items()):
        print("  %-36s %d" % (key, value), file=out)
    step = stats["fleet_metrics"]["histograms"].get("fleet.step_us")
    if step and step["count"]:
        print("step time (virtual us): count=%d p50=%.0f p95=%.0f max=%.0f"
              % (step["count"], step["p50"], step["p95"], step["max"]),
              file=out)
    print("session rollup counters (summed):", file=out)
    for key, value in sorted(stats["rollup"]["counters"].items()):
        print("  %-36s %d" % (key, value), file=out)
    if "faults" in stats:
        print("failpoint rollup (all sessions):", file=out)
        _print_fault_table(stats["faults"]["sites"], out)
    _print_thinning(stats, out)
    if "branches" in stats:
        br = stats["branches"]
        print("branches: %d forked, %d fork failure(s), %d deleted" % (
            br["forked"], br["fork_failures"], br["deleted"]), file=out)
        for name, info in sorted(br["live"].items()):
            print("  %-6s parent=%s@%d shared=%s private=%s" % (
                name, info["parent"], info["source_checkpoint"],
                format_bytes(info["shared_bytes"]),
                format_bytes(info["private_bytes"])), file=out)
    cas = stats["cas"]
    print("shared page store: dedup ratio %.1f%%, %d cross-session "
          "page(s), %d orphan(s) reclaimed" % (
              100.0 * cas["dedup_ratio"], cas["cross_pages_deduped"],
              cas["orphans_reclaimed"]), file=out)
    _print_shard_table(cas, out)
    wb = stats.get("writeback")
    if wb is not None:
        print("writeback scheduling: %d shard(s), group commit at %s, "
              "backpressure at %s (%d force flush(es))" % (
                  wb["shards"], format_bytes(wb["group_commit_bytes"]),
                  format_bytes(wb["max_backlog_bytes"]),
                  wb["backlog_force_flushes"]), file=out)
    if "slo" in stats:
        _print_slo(stats["slo"], out)
    _print_journal_line(stats, out)
    for path in written:
        print("wrote %s" % path, file=out)
    return 0


def cmd_revive_storm(args, out):
    """Fork ``--branches`` members from one checkpoint of a recorded
    parent and run them to completion, printing fork latency and the
    shared/private page economics (section 5.2 branchable revive)."""
    from repro.workloads.fleet_wl import run_revive_storm

    fleet, report = run_revive_storm(
        args.branches, seed=args.seed, scenario=args.scenario,
        parent_units=args.parent_units, branch_units=args.branch_units,
        crash_branch=args.crash_branch, shards=args.shards)
    stats = fleet.stats()
    if args.json:
        json.dump({"storm": report, "final": stats}, out, indent=2,
                  default=str)
        print(file=out)
        return 0
    print("revive storm: %d branch(es) from checkpoint %d of %r "
          "(scenario %s, seed %d)" % (
              args.branches, report["source_checkpoint"], "p0",
              args.scenario, args.seed), file=out)
    forks = sorted(report["fork_us"])
    if forks:
        print("fork latency (virtual us): p50=%d p95=%d max=%d" % (
            forks[len(forks) // 2],
            forks[min(len(forks) - 1, int(len(forks) * 0.95))],
            forks[-1]), file=out)
    at_fork = report["split_at_fork"].values()
    total_shared = sum(s["shared_bytes"] for s in at_fork)
    total_private = sum(s["private_bytes"] for s in at_fork)
    denom = total_shared + total_private
    print("pages at fork: %s shared, %s private (%.1f%% shared)" % (
        format_bytes(total_shared), format_bytes(total_private),
        100.0 * total_shared / denom if denom else 0.0), file=out)
    if report["crashed"] is not None:
        print("injected crash: %s at %s, recovery %s" % (
            report["crashed"]["name"], report["crashed"]["site"],
            "ok" if report["crashed"]["recovery_ok"] else "FAILED"),
            file=out)
    for name, info in sorted(stats["sessions"].items()):
        if info.get("kind") != "branch":
            continue
        split = report["split_after_run"].get(name, {})
        print("  %-6s %-8s %-10s %3d/%3d units, %d checkpoint(s), "
              "shared %s / private %s" % (
                  name, info["scenario"], info["state"],
                  info["units_done"], info["units_total"],
                  info["checkpoints"],
                  format_bytes(split.get("shared_bytes", 0)),
                  format_bytes(split.get("private_bytes", 0))), file=out)
    cas = stats["cas"]
    print("shared page store: %s physical, cross-session dedup "
          "ratio %.1f%%" % (
              format_bytes(cas["physical_uncompressed_bytes"]),
              100.0 * cas["dedup_ratio"]), file=out)
    return 0


def _top_frame(fleet):
    """One ``repro top`` dashboard frame as a JSON-ready dict."""
    members = []
    for member in fleet.members():
        info = {
            "name": member.name,
            "scenario": member.scenario,
            "state": member.state,
            "units_done": member.units_done,
            "units_total": member.run.units if member.run else 0,
            "clock_us": (member.session.clock.now_us
                         if member.session else 0),
            "checkpoints": (member.dejaview.checkpoint_count
                            if member.dejaview else 0),
            "thinned": (len(member.dejaview.storage.thinned_ids())
                        if member.dejaview else 0),
        }
        if member.is_branch:
            info["kind"] = "branch"
            info["parent"] = member.parent
            info["source_checkpoint"] = member.source_checkpoint
        telemetry = member.dejaview.telemetry \
            if member.dejaview is not None else None
        if telemetry is not None and telemetry.enabled:
            down = telemetry.metrics.snapshot()["histograms"].get(
                "checkpoint.downtime_us")
            if down and down["count"]:
                info["downtime_p95_us"] = down["p95"]
        if member.quota_violation is not None:
            attr, used, limit = member.quota_violation
            info["quota"] = {"quota": attr, "used": used, "limit": limit}
        members.append(info)
    frame = {
        "service_clock_us": fleet.clock.now_us,
        "steps": fleet.telemetry.metrics.counter("fleet.steps").value,
        "queue_depth": len(fleet.runnable()),
        "dedup_ratio": fleet.dedup_ratio(),
        "writeback_backlog": fleet.cas.backlog_bytes(),
        "flush_batches": fleet.telemetry.metrics.counter(
            "fleet.flush_batches").value,
        "checkpoints_thinned": fleet.telemetry.metrics.counter(
            "fleet.checkpoints_thinned").value,
        "members": members,
    }
    if fleet.watchdog is not None:
        fleet.check_slos()
        frame["slo_standing"] = fleet.watchdog.standing()
    return frame


def _print_top_frame(frame, index, out):
    slo_text = ""
    standing = frame.get("slo_standing")
    if standing is not None:
        violated = sorted(name for name, ok in standing.items()
                          if ok is False)
        slo_text = " slo=%s" % (
            "VIOLATED(%s)" % ",".join(violated) if violated else "ok")
    thin_text = ""
    if frame.get("checkpoints_thinned"):
        thin_text = " thinned=%d" % frame["checkpoints_thinned"]
    print("frame %-3d t=%-10s steps=%-5d queue=%d dedup=%4.1f%% "
          "writeback_backlog=%-8s flushes=%d%s%s" % (
              index, format_duration_us(frame["service_clock_us"]),
              frame["steps"], frame["queue_depth"],
              100.0 * frame["dedup_ratio"],
              format_bytes(frame["writeback_backlog"]),
              frame["flush_batches"], thin_text, slo_text), file=out)
    for member in frame["members"]:
        down = format_duration_us(member["downtime_p95_us"]) \
            if "downtime_p95_us" in member else "-"
        extra = ""
        if member.get("thinned"):
            extra = " thin=%d" % member["thinned"]
        if member.get("kind") == "branch":
            extra = " branch-of:%s@%d" % (
                member["parent"], member["source_checkpoint"])
        if "quota" in member:
            extra += " quota:%s %d>%d" % (
                member["quota"]["quota"], member["quota"]["used"],
                member["quota"]["limit"])
        print("  %-6s %-8s %-10s %3d/%3d units ckpt=%-3d p95=%-9s "
              "clock=%s%s" % (
                  member["name"], member["scenario"], member["state"],
                  member["units_done"], member["units_total"],
                  member["checkpoints"], down,
                  format_duration_us(member["clock_us"]), extra), file=out)


def cmd_top(args, out):
    """The fleet dashboard: step the fleet frame by frame and render
    per-member state, checkpoint-downtime p95, dedup ratio, scheduler
    queue depth, and SLO standings on the service clock."""
    from repro.workloads.fleet_wl import build_fleet

    fleet = build_fleet(args.sessions, seed=args.seed,
                        units_scale=args.units_scale, shards=args.shards,
                        **_fleet_observability(args, want_watchdog=True))
    frames = []
    for index in range(args.frames):
        fleet.run_to_completion(max_steps=args.steps_per_frame)
        frame = _top_frame(fleet)
        frames.append(frame)
        if not args.json:
            _print_top_frame(frame, index, out)
        if not fleet.runnable():
            break
    stats = fleet.stats()
    written = _write_fleet_exports(args, fleet, stats)
    if args.json:
        json.dump({"frames": frames, "final": stats}, out, indent=2,
                  default=str)
        print(file=out)
        return 0
    states = {}
    for member in fleet.members():
        states[member.state] = states.get(member.state, 0) + 1
    print("fleet settled: %s; service clock %s" % (
        " ".join("%s=%d" % kv for kv in sorted(states.items())),
        format_duration_us(fleet.clock.now_us)), file=out)
    _print_journal_line(stats, out)
    for path in written:
        print("wrote %s" % path, file=out)
    return 0


def cmd_demo(_args, out):
    from repro.common.units import seconds
    from repro.desktop.dejaview import DejaView
    from repro.desktop.session import DesktopSession
    from repro.display.commands import Region
    from repro.index.query import Query

    session = DesktopSession()
    dv = DejaView(session)
    editor = session.launch("editor")
    editor.focus()
    editor.draw_fill(Region(0, 0, session.width, session.height), 0x204080)
    editor.show_text("demo: the personal virtual computer recorder")
    editor.write_file("/home/user/demo.txt", b"recorded demo file")
    dv.tick()
    t_then = session.clock.now_us
    session.clock.advance_us(seconds(5))
    session.fs.unlink("/home/user/demo.txt")
    dv.tick()

    print("recorded 5 s of desktop activity", file=out)
    hits = dv.search(Query.keywords("recorder"), render=False)
    print("search 'recorder': %d hit(s) at t=%.1fs" % (
        len(hits), hits[0].timestamp_us / 1e6), file=out)
    revived = dv.take_me_back(t_then)
    print("revived %r; deleted file restored: %s" % (
        revived.container.name,
        revived.container.mount.read_file("/home/user/demo.txt").decode()),
        file=out)
    return 0


def cmd_figures(_args, out):
    print("paper experiment -> bench file (pytest <file> "
          "--benchmark-only -s):", file=out)
    for key, path in FIGURES.items():
        print("  %-10s %s" % (key, path), file=out)
    return 0


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    handler = {
        "scenarios": cmd_scenarios,
        "run": cmd_run,
        "stats": cmd_stats,
        "doctor": cmd_doctor,
        "replay": cmd_replay,
        "thin": cmd_thin,
        "serve": cmd_serve,
        "fleet-stats": cmd_fleet_stats,
        "revive-storm": cmd_revive_storm,
        "top": cmd_top,
        "demo": cmd_demo,
        "figures": cmd_figures,
    }[args.command]
    return handler(args, out)


if __name__ == "__main__":
    sys.exit(main())
