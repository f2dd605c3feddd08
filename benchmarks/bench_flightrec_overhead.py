"""Flight-recorder overhead benchmarks.

The journal promises always-on affordability: the NULL_FLIGHTREC no-op
path must cost one empty bound-method call per instrumented site, and a
journal-enabled run must stay bit-identical to a disabled one (the
recorder only *reads* clocks) within a small wall-clock envelope — the
acceptance gate is <= 5% overhead; the assertion here uses a looser
bound so noisy CI machines don't flap, while the measured figure lands
in ``BENCH_flightrec.json`` for offline inspection.
"""

import time

from benchmarks.conftest import update_artifact
from repro.common.clock import VirtualClock
from repro.common.flightrec import (
    NULL_FLIGHTREC,
    NULL_SCOPE,
    REC_EVENT,
    FlightRecorder,
)
from repro.desktop.dejaview import RecordingConfig
from repro.workloads import run_scenario

OPS = 10_000

#: Acceptance gate for the journal-enabled wall-clock overhead; the
#: assertion below uses CI_BOUND to stay robust on shared runners.
OVERHEAD_GATE = 0.05
CI_BOUND = 0.25

BENCH_SCENARIO = "gzip"
BENCH_UNITS = 6


def test_bench_noop_scope_record(benchmark):
    def spin():
        for _ in range(OPS):
            NULL_SCOPE.record(REC_EVENT, None)

    benchmark(spin)


def test_bench_enabled_record(benchmark):
    recorder = FlightRecorder()
    scope = recorder.scope("bench", VirtualClock())

    def spin():
        for _ in range(OPS):
            scope.record(REC_EVENT, {"event": "bench"})

    benchmark(spin)


def test_noop_scope_is_cheap():
    """The disabled journal path must cost well under a microsecond per
    call — the NULL_TELEMETRY / NULL_FAULTS envelope."""
    rounds = 200_000
    record = NULL_SCOPE.record
    start = time.perf_counter_ns()
    for _ in range(rounds):
        record(REC_EVENT, None)
    elapsed_ns = time.perf_counter_ns() - start
    per_op_ns = elapsed_ns / rounds
    assert per_op_ns < 1000, "no-op journal record took %.0f ns" % per_op_ns
    # And the tracer hot path stays a single `sink is None` check.
    assert NULL_SCOPE.span_sink() is None
    assert NULL_FLIGHTREC.replay().records == []


def test_journal_run_is_bit_identical():
    """Journaling changes no recorded behavior: same simulated duration,
    same storage accounting, same checkpoint downtime series."""
    on = run_scenario(
        BENCH_SCENARIO, units=BENCH_UNITS,
        recording=RecordingConfig(flightrec=FlightRecorder(),
                                  flightrec_rollup_ticks=1))
    off = run_scenario(BENCH_SCENARIO, units=BENCH_UNITS,
                       recording=RecordingConfig())
    assert on.duration_us == off.duration_us
    assert on.dejaview.storage_report() == off.dejaview.storage_report()
    assert ([r.downtime_us for r in on.dejaview.engine.history]
            == [r.downtime_us for r in off.dejaview.engine.history])


def test_journal_overhead_within_bound(request):
    """Wall-clock cost of a journal-enabled scenario run vs the disabled
    NULL_FLIGHTREC path; writes the measured figure to the artifact."""
    # Warm both paths so one-time import costs don't skew the ratio.
    run_scenario(BENCH_SCENARIO, units=2, recording=RecordingConfig())
    run_scenario(BENCH_SCENARIO, units=2,
                 recording=RecordingConfig(flightrec=FlightRecorder(),
                                           flightrec_rollup_ticks=1))

    def timed(config):
        start = time.perf_counter_ns()
        run_scenario(BENCH_SCENARIO, units=BENCH_UNITS, recording=config)
        return time.perf_counter_ns() - start

    # Interleave the two configurations and take each side's best:
    # back-to-back pairs cancel the machine's drift (GC pressure, CPU
    # throttling), which on shared runners dwarfs the journal itself.
    recorders = []
    off_ns = on_ns = None
    for _ in range(5):
        off = timed(RecordingConfig())
        recorder = FlightRecorder()
        recorders.append(recorder)
        on = timed(RecordingConfig(flightrec=recorder,
                                   flightrec_rollup_ticks=1))
        off_ns = off if off_ns is None else min(off_ns, off)
        on_ns = on if on_ns is None else min(on_ns, on)
    overhead = on_ns / off_ns - 1
    records = max(r.records_written for r in recorders)
    journal_bytes = sum(len(blob)
                        for blob in recorders[-1].segment_data())

    update_artifact(request, "flightrec", "overhead", {
        "scenario": BENCH_SCENARIO,
        "units": BENCH_UNITS,
        "disabled_wall_ns": off_ns,
        "journaled_wall_ns": on_ns,
        "overhead_fraction": overhead,
        "overhead_gate": OVERHEAD_GATE,
        "ci_assert_bound": CI_BOUND,
        "records_written": records,
        "journal_bytes": journal_bytes,
    })

    assert on_ns < off_ns * (1 + CI_BOUND), (
        "journal overhead %.1f%% (gate %.0f%%, CI bound %.0f%%)"
        % (overhead * 100, OVERHEAD_GATE * 100, CI_BOUND * 100))


def test_noop_run_matches_default_run(request):
    """An explicit flightrec=None resolves to NULL_FLIGHTREC and changes
    nothing; records the no-op delta (should be pure noise) alongside
    the enabled figure."""
    default = run_scenario(BENCH_SCENARIO, units=BENCH_UNITS,
                           recording=RecordingConfig())
    explicit = run_scenario(BENCH_SCENARIO, units=BENCH_UNITS,
                            recording=RecordingConfig(flightrec=None))
    assert default.duration_us == explicit.duration_us
    assert default.dejaview.storage_report() \
        == explicit.dejaview.storage_report()
    update_artifact(request, "flightrec", "noop", {
        "bit_identical": True,
        "duration_us": default.duration_us,
    })
