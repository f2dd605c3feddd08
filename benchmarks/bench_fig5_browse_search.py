"""Figure 5: browse and search latency.

Browse: seek the display record at regular intervals, skipping points with
fewer than 100 display commands since the previous point (the paper's
methodology: quiet points "are unlikely to be of interest").  Reports the
average reconstruction (seek) latency per scenario.

Search: for each application benchmark, five single-word queries of text
randomly selected from its own database; for the desktop, ten multi-word
queries, a subset restricted to specific applications and time ranges (the
paper's methodology).  Reports average query latency.

Paper shape being reproduced: search <= ~10 ms for app benchmarks and
~20 ms for the desktop; browse between ~40 ms (video) and ~130 ms (web),
~200 ms for the desktop — all interactive.
"""


import numpy as np

from benchmarks.conftest import ALL_SCENARIOS, print_table, update_artifact
from repro.common.clock import VirtualClock
from repro.common.telemetry import Telemetry, percentile
from repro.common.units import ms, seconds
from repro.display.playback import PlaybackEngine
from repro.display.protocol import CommandLogReader
from repro.index.database import TemporalTextDatabase
from repro.index.query import Clause, Query
from repro.index.search import SearchEngine

SEARCH_SCENARIOS = [n for n in ALL_SCENARIOS if n not in ("gzip", "octave")]
"""gzip and octave put almost no text on screen; like the paper's Figure 5
(which shows no gzip bar) we skip scenarios without enough indexed text."""


def _browse_points(record, min_commands=100, samples=10):
    """Sample times with >=100 commands since the previous sample."""
    times = [ts for _cmd, ts, _off in CommandLogReader(record.log_bytes)]
    if not times:
        return []
    step = max(len(times) // samples, min_commands)
    points = []
    last = 0
    for i in range(step, len(times), step):
        if i - last >= min_commands:
            points.append(times[i])
            last = i
    return points or [times[-1]]


def _browse_latency(run):
    record = run.dejaview.display_record()
    engine = PlaybackEngine(record, clock=VirtualClock(),
                            cache_capacity=0)  # no cache: cold browses
    latencies = []
    for point in _browse_points(record):
        watch = engine.clock.stopwatch()
        engine.seek(point)
        latencies.append(watch.elapsed_us)
    return sum(latencies) / len(latencies) if latencies else 0.0


def _app_queries(database, rng, count=5):
    vocabulary = [t for t in database.vocabulary() if len(t) > 2]
    if not vocabulary:
        return []
    words = rng.choice(vocabulary, size=min(count, len(vocabulary)),
                       replace=False)
    return [Query.keywords(str(word)) for word in words]


def _desktop_queries(run, rng, count=10):
    database = run.dejaview.database
    vocabulary = [t for t in database.vocabulary() if len(t) > 2]
    end = run.end_us
    queries = []
    for i in range(count):
        words = rng.choice(vocabulary, size=2, replace=False)
        clause_kwargs = {}
        if i % 2 == 0:
            clause_kwargs["app"] = ["firefox", "openoffice", "gaim"][i % 3]
        clause = Clause(any_of=[str(w) for w in words], **clause_kwargs)
        time_range = {}
        if i % 3 == 0:
            time_range = {"start_us": end // 4, "end_us": 3 * end // 4}
        queries.append(Query(clauses=(clause,), **time_range))
    return queries


def _search_latencies(run, queries):
    database = run.dejaview.database
    engine = SearchEngine(database, playback=None)
    latencies = []
    for query in queries:
        watch = database.clock.stopwatch()
        engine.search(query, render=False)
        latencies.append(watch.elapsed_us)
    return latencies


def test_fig5_browse_and_search(benchmark, scenarios, request):
    def build():
        rng = np.random.default_rng(5)
        table = {}
        for name in ALL_SCENARIOS:
            run = scenarios.get(name)
            browse = _browse_latency(run)
            if name in SEARCH_SCENARIOS:
                if name == "desktop":
                    queries = _desktop_queries(run, rng)
                else:
                    queries = _app_queries(run.dejaview.database, rng)
                latencies = _search_latencies(run, queries)
                search = (sum(latencies) / len(latencies)
                          if latencies else 0.0)
            else:
                latencies = []
                search = None
            table[name] = {"browse": browse, "search": search,
                           "latencies": latencies}
        return table

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    update_artifact(request, "fig5", "search_latency_us", {
        name: {
            "queries": len(entry["latencies"]),
            "mean": entry["search"],
            "p50": percentile(sorted(entry["latencies"]), 50),
            "p95": percentile(sorted(entry["latencies"]), 95),
            "browse_mean": entry["browse"],
        }
        for name, entry in table.items()
    })
    rows = [
        [
            name,
            "%.1f" % (table[name]["browse"] / 1000),
            "-" if table[name]["search"] is None
            else "%.2f" % (table[name]["search"] / 1000),
        ]
        for name in ALL_SCENARIOS
    ]
    print_table(
        "Figure 5 -- browse and search latency (ms)",
        ["scenario", "browse", "search"],
        rows,
        note="Paper: search <= 10 ms (apps) / ~20 ms (desktop); browse "
             "40-130 ms (apps) / ~200 ms (desktop).",
    )

    for name in ALL_SCENARIOS:
        entry = table[name]
        # Browse stays interactive: well under the 1 s usability threshold.
        assert entry["browse"] < ms(500), name
        if entry["search"] is not None:
            # "query times are fast enough to support interactive search".
            assert entry["search"] < ms(60), name

    # Desktop queries (multi-word + context over a larger index) cost more
    # than the single-word application queries.
    app_search = [table[n]["search"] for n in SEARCH_SCENARIOS
                  if n != "desktop"]
    assert table["desktop"]["search"] >= max(app_search) * 0.8

    # Web's command-dense pages browse slower than video's single-command
    # frames (130 ms vs 40 ms in the paper).
    assert table["web"]["browse"] > table["video"]["browse"]


def test_bench_seek_wallclock(benchmark, scenarios):
    """Wall-clock cost of one browse (seek) on the cat record."""
    run = scenarios.get("cat")
    engine = PlaybackEngine(run.dejaview.display_record(),
                            clock=VirtualClock())
    target = run.end_us
    benchmark(lambda: engine.seek(target))


def test_bench_query_wallclock(benchmark, scenarios):
    """Wall-clock cost of one keyword query over the desktop index."""
    run = scenarios.get("desktop")
    engine = SearchEngine(run.dejaview.database, playback=None)
    query = Query.keywords("report")
    benchmark(lambda: engine.search(query, render=False))


def _result_fingerprint(results):
    return [
        (r.timestamp_us, r.substream.start_us, r.substream.end_us,
         r.snippet, r.score)
        for r in results
    ]


def test_fig5_windowed_query_pruning(request):
    """Epoch-partitioned postings: a query over the last 10% of a long
    recording scans a small fraction of the posting list, and repeated
    identical queries are served bit-identically from the interval cache.

    This is the before/after story of the query-path overhaul: the seed
    implementation rescanned every posting from time zero regardless of
    the query window (scanned == total), so ``postings_scanned_windowed /
    postings_total`` is the pruning factor directly.
    """
    clock = VirtualClock()
    telemetry = Telemetry(clock)
    db = TemporalTextDatabase(clock, telemetry=telemetry)
    # A long "day": 1200 short-lived occurrences spread over two simulated
    # hours (120 one-minute epochs at the default bucket width).
    for i in range(1200):
        db.open_occurrence(1, "needle event %d" % i, app="firefox")
        clock.advance_us(seconds(3))
        db.close_occurrence(1)
        clock.advance_us(seconds(3))
    end_us = clock.now_us
    scanned = telemetry.metrics.counter("index.postings_scanned")
    pruned = telemetry.metrics.counter("index.postings_pruned")
    skipped = telemetry.metrics.counter("index.buckets_skipped")
    hits = telemetry.metrics.counter("index.interval_cache_hits")
    engine = SearchEngine(db, playback=None, telemetry=telemetry)
    postings_total = db.posting_count("needle")

    # Cold, unwindowed: the full-history scan the seed always paid.
    before = scanned.value
    full_results = engine.search(Query.keywords("needle"), render=False)
    scanned_full = scanned.value - before
    assert scanned_full == postings_total

    # Windowed over the last 10% of the recording: scans only the buckets
    # overlapping the window.
    window_start = int(end_us * 0.9)
    query = Query.keywords("needle", start_us=window_start, end_us=end_us)
    before_scanned, before_pruned = scanned.value, pruned.value
    before_skipped = skipped.value
    cold = engine.search(query, render=False)
    scanned_windowed = scanned.value - before_scanned
    pruned_windowed = pruned.value - before_pruned
    skipped_windowed = skipped.value - before_skipped
    assert cold, "the window contains matches"
    assert scanned_windowed <= postings_total
    assert scanned_windowed < 0.25 * scanned_full, (
        "windowed query must scan < 25%% of the seed's postings "
        "(scanned %d of %d)" % (scanned_windowed, postings_total))
    assert skipped_windowed > 0

    # Repeat the identical query: served from the interval cache, with
    # bit-identical results and no further posting scans.
    before_scanned, before_hits = scanned.value, hits.value
    warm = engine.search(query, render=False)
    cache_hits = hits.value - before_hits
    assert cache_hits > 0
    assert scanned.value == before_scanned
    assert _result_fingerprint(warm) == _result_fingerprint(cold)

    update_artifact(request, "fig5", "windowed_pruning", {
        "recording_us": end_us,
        "window_start_us": window_start,
        "window_end_us": end_us,
        "postings_total": postings_total,
        "postings_scanned_full": scanned_full,
        "postings_scanned_windowed": scanned_windowed,
        "postings_pruned_windowed": pruned_windowed,
        "buckets_skipped_windowed": skipped_windowed,
        "scan_fraction": scanned_windowed / float(postings_total),
        "interval_cache_hits": cache_hits,
        "repeat_results_identical":
            _result_fingerprint(warm) == _result_fingerprint(cold),
        "windowed_results": len(cold),
        "full_results": len(full_results),
    })
