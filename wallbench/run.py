"""Wall-clock benchmark of the DejaView reproduction.

Usage, from the root of a checkout::

    python3 wallbench/run.py --workload {record-fleet,recall,timetravel} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same loop twice — untraced, then with benchmark-side
spans around each layer's public calls — and prints the per-layer metrics,
including the tracing overhead (traced minus untraced).  The spans are
written to ``wallbench/out/`` when the run ends.

Wall times and rates are scaled to a reference host speed measured by a
fixed kernel timed between operations (``harness.SpeedProbe``); the line
``wallbench: as measured {...}`` before the result gives them unscaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names,
units and bounds come from ``BENCHMARK.json``; ``WORKLOADS.md`` says what
each workload exercises and why.
"""

import argparse
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import (SpeedProbe, Tracer, build_result,  # noqa: E402
                     median_ms, percentile, ratio, span_summary, tail_ms)

LAYERS = ("server", "workloads", "display", "index", "checkpoint", "replay")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, setups, phase):
    samples = phase.all_samples()
    return {
        "ops_per_s": phase.units / phase.busy_s,
        "op_p50_ms": median_ms(samples),
        "op_tail_ms": tail_ms(samples, workload.tail_per_mille),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def scale_to_reference(metrics, units, factor):
    """Scale wall-time metrics (units ``ms``, ``s``) and rates (``1/s``)
    by the run's probe factor; every other unit is left as measured."""
    for name, value in metrics.items():
        if units[name] in ("ms", "s"):
            metrics[name] = value * factor
        elif units[name] == "1/s":
            metrics[name] = value / factor
    return metrics


def _mean_ms(summary, name):
    calls = summary["calls"].get(name, 0)
    return ratio(summary["total_s"].get(name, 0.0), calls) * 1e3


def _self_ms(summary, name):
    calls = summary["calls"].get(name, 0)
    return ratio(summary["self_s"].get(name, 0.0), calls) * 1e3


def per_op_metrics(phase):
    """Per-op latencies, from the untraced loop; 0 where the workload has
    no such op."""
    samples = phase.samples
    out = {}
    for kind, tails in (("step", (990,)), ("search", (990,)),
                        ("browse", (990,)), ("play", ()),
                        ("revive", (900,)), ("replay_revive", ())):
        values = samples.get(kind, [])
        out[kind + ".samples"] = len(values)
        out[kind + "_p50_ms"] = median_ms(values) if values else 0.0
        for per_mille in tails:
            name = "%s_p%d_ms" % (kind, per_mille // 10)
            out[name] = tail_ms(values, per_mille) if values else 0.0
    out["record_units_per_s"] = (ratio(phase.units, phase.busy_s)
                                 if "step" in samples else 0.0)
    extra = phase.extra
    downtimes = extra.get("downtime_us", ())
    out["downtime_p95_vms"] = (percentile(downtimes, 950) / 1e3
                               if downtimes else 0.0)
    out["stored_bytes_per_sim_s"] = ratio(extra.get("stored_bytes", 0),
                                          extra.get("sim_us", 0) / 1e6)
    return out


def layer_metrics(workload, untraced, traced, summary, probe, phase_factors):
    """Per-layer figures: span timings from the traced loop, counters
    from the program's telemetry (recording side per recorded unit, read
    side per measured op), each ratio beside its base.

    ``phase_factors`` are the probe factors of the untraced and traced
    loops; the tracing overhead compares the two loops at reference
    speed, so host drift between them does not read as overhead."""
    if hasattr(workload, "rec_counts"):
        rec, rec_units = workload.rec_counts, workload.units
    else:
        rec, rec_units = traced.rec, traced.rec_units
    read = traced.read
    ops = traced.attempted

    def per_unit(name):
        return ratio(rec.get(name, 0), rec_units)

    def per_op(name):
        return ratio(read.get(name, 0), ops)

    out = per_op_metrics(untraced)
    out["ops_failed_frac"] = ratio(untraced.failed + traced.failed,
                                   untraced.attempted + traced.attempted)

    out["workloads.unit.ms"] = _mean_ms(summary, "workloads.unit")

    out["server.step.self_ms"] = _self_ms(summary, "server.step")
    out["server.flush.ms"] = _mean_ms(summary, "server.flush")
    out["server.flush.batches"] = per_unit("fleet.flush_batches")
    out["server.flush.pages"] = ratio(rec.get("fleet.flush_pages", 0),
                                      rec.get("fleet.flush_batches", 0))
    backlog = traced.extra.get("backlog_p95")
    out["server.backlog_p95_bytes"] = (statistics.median(backlog)
                                       if backlog else 0.0)

    out["display.flush.ms"] = _mean_ms(summary, "display.flush")
    out["display.commands_logged"] = per_unit("display.commands_logged")
    out["display.log_bytes"] = per_unit("display.log_bytes")
    out["display.seek.ms"] = _mean_ms(summary, "display.seek")
    out["display.commands_considered"] = per_op(
        "playback.commands_considered")
    out["display.applied_per_considered"] = ratio(
        read.get("playback.commands_applied", 0),
        read.get("playback.commands_considered", 0))
    lookups = (read.get("playback.cache_hits", 0)
               + read.get("playback.cache_misses", 0))
    out["display.keyframe_lookups"] = ratio(lookups, ops)
    out["display.keyframe_cache_hit_ratio"] = ratio(
        read.get("playback.cache_hits", 0), lookups)

    out["access.events"] = per_unit("daemon.events_processed")
    mirror = rec.get("daemon.mirror_hits", 0) + rec.get(
        "daemon.mirror_misses", 0)
    out["access.mirror_lookups"] = ratio(mirror, rec_units)
    out["access.mirror_hit_ratio"] = ratio(rec.get("daemon.mirror_hits", 0),
                                           mirror)

    out["index.ingest.inserts"] = per_unit("index.inserts")
    out["index.ingest.closes"] = per_unit("index.closes")
    out["index.ingest.ms"] = _mean_ms(summary, "index.ingest")
    out["index.search.ms"] = _mean_ms(summary, "index.search")
    queries = read.get("index.queries", 0)
    out["index.results"] = ratio(read.get("index.results", 0), queries)
    out["index.postings_scanned_per_result"] = ratio(
        read.get("index.postings_scanned", 0), read.get("index.results", 0))
    interval = (read.get("index.interval_cache_hits", 0)
                + read.get("index.interval_cache_misses", 0))
    out["index.interval_cache_lookups"] = ratio(interval, queries)
    out["index.interval_cache_hit_ratio"] = ratio(
        read.get("index.interval_cache_hits", 0), interval)
    out["index.planner_shortcircuits"] = ratio(
        read.get("index.planner_shortcircuits", 0), queries)

    engine_s = summary["total_s"].get("checkpoint.engine", 0.0)
    out["checkpoint.engine.ms"] = _mean_ms(summary, "checkpoint.engine")
    out["checkpoint.store.ms"] = _mean_ms(summary, "checkpoint.store")
    out["checkpoint.store_share"] = ratio(
        summary["total_s"].get("checkpoint.store", 0.0), engine_s)
    checkpoints = rec.get("checkpoint.count", 0)
    out["checkpoint.count"] = per_unit("checkpoint.count")
    out["checkpoint.pages_saved"] = ratio(rec.get("checkpoint.pages_saved", 0),
                                          checkpoints)
    out["checkpoint.cow_faults"] = ratio(rec.get("checkpoint.cow_faults", 0),
                                         checkpoints)
    appended = (rec.get("fleet.flush_pages", 0)
                + rec.get("storage.writeback_flush_pages", 0))
    out["checkpoint.new_page_ratio"] = ratio(
        appended, rec.get("checkpoint.pages_saved", 0))
    downtimes = (traced.extra.get("downtime_us")
                 or getattr(workload, "rec_downtimes", ()))
    out["checkpoint.downtime_vus"] = (statistics.mean(downtimes)
                                      if downtimes else 0.0)
    out["checkpoint.revive.ms"] = _mean_ms(summary, "checkpoint.revive")
    out["checkpoint.load.ms"] = _mean_ms(summary, "checkpoint.load")
    revives = traced.extra.get("revives", 0)
    out["checkpoint.pages_restored"] = ratio(
        traced.extra.get("pages_restored", 0), revives)
    out["checkpoint.revive_bytes_read"] = ratio(
        traced.extra.get("bytes_read", 0), revives)
    out["checkpoint.revive_fallbacks"] = ratio(
        read.get("revive.fallbacks", 0), revives)

    out["fs.txns"] = per_unit("fs.txns")
    out["fs.blocks_synced"] = per_unit("fs.blocks_synced")
    out["fs.snapshots"] = per_unit("fs.snapshots")

    replays = traced.extra.get("replays", 0)
    out["replay.revive.ms"] = _mean_ms(summary, "replay.revive")
    out["replay.events_verified"] = ratio(
        traced.extra.get("events_verified", 0), replays)
    out["replay.distance_events"] = ratio(
        traced.extra.get("distance_events", 0), replays)
    out["replay.log_bytes"] = per_unit("replay.log_bytes")
    out["replay.events"] = per_unit("replay.events")

    # Accounting: layer self times inside op roots cover the traced op
    # wall time; the difference to the untraced loop is the overhead.
    roots = summary["roots"]
    root_s = summary["root_s"]
    samples = untraced.all_samples()
    untraced_factor, traced_factor = phase_factors
    untraced_mean = ratio(sum(samples), len(samples)) * untraced_factor
    traced_mean = ratio(root_s, roots) * traced_factor
    overhead = ratio(traced_mean - untraced_mean, untraced_mean)
    out["trace.overhead_frac"] = overhead
    # In wall ms of this run, so the final scaling maps it like the rest.
    out["trace.overhead_ms_per_op"] = (
        overhead * ratio(sum(samples), len(samples)) * 1e3)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in summary["self_s"].items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    for layer, seconds in layer_self.items():
        out[layer + ".self_ms_per_op"] = ratio(seconds, roots) * 1e3
    attributed = sum(layer_self.values())
    out["trace.accounted_frac"] = ratio(attributed, root_s)
    out["trace.unattributed_ms_per_op"] = ratio(root_s - attributed,
                                                roots) * 1e3
    out["probe.wall_ms"] = statistics.mean(probe.samples) * 1e3
    out["probe.concurrent_samples"] = probe.concurrent
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit("wallbench: no program source at %s" % source)
    sys.path.insert(0, source)
    from workloads import WORKLOADS, trace_targets

    if args.workload not in WORKLOADS:
        sys.exit("wallbench: unknown workload %r (have %s)"
                 % (args.workload, ", ".join(sorted(WORKLOADS))))
    workload = WORKLOADS[args.workload](args.seed)

    probe = SpeedProbe()
    if not args.trace:
        setups = workload.prepare(probe)
        phase = workload.measure(args.seconds, probe)
        setups = setups + phase.setups
        metrics = end_to_end(workload, setups, phase)
        attempted, failed = phase.attempted, phase.failed
        problems = phase.problems
    else:
        tracer = Tracer()
        with tracer.installed(trace_targets()):
            workload.prepare(probe, tracer)
        first = len(probe.samples)
        untraced = workload.measure(args.seconds, probe)
        middle = len(probe.samples)
        with tracer.installed(trace_targets()):
            traced = workload.measure(args.seconds, probe, tracer)
        summary = span_summary(tracer.spans)
        phase_factors = (probe.factor(first, middle), probe.factor(middle))
        metrics = layer_metrics(workload, untraced, traced, summary, probe,
                                phase_factors)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        problems = untraced.problems + traced.problems
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, "trace-%s-seed%d.json"
                                 % (args.workload, args.seed)))
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    print("wallbench: as measured %s" % json.dumps(metrics, sort_keys=True))
    factor = probe.factor()
    print("wallbench: %d probes, mean %.3f ms; wall times scaled by %.4f"
          % (len(probe.samples), statistics.mean(probe.samples) * 1e3,
             factor))
    if probe.concurrent:
        print("wallbench: UNSCALED: %d probes ran beside other threads or "
              "processes" % probe.concurrent)
    metrics = scale_to_reference(metrics, units, factor)
    for problem in problems:
        print("wallbench: FAILED %s" % problem)
    print(json.dumps(build_result(spec, args.trace, metrics, attempted,
                                  failed)))


if __name__ == "__main__":
    main()
