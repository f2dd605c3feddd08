"""Shared infrastructure for the evaluation harness.

Each ``bench_*`` file regenerates one table or figure from the paper's
section 6.  The simulated quantities (normalized overhead, checkpoint
latency, storage growth, browse/search latency, playback speedup, revive
latency) are computed from full scenario runs on the virtual clock and
printed as the same rows/series the paper reports; the pytest-benchmark
fixture additionally measures the real wall-clock cost of this
implementation's core operations.

Scenario runs are expensive, so they are cached per (scenario, recording
configuration, units) for the whole pytest session.

At the end of every bench session, the telemetry snapshot of each cached
scenario run is written to ``BENCH_telemetry.json`` in the pytest root —
one entry per (scenario, kind, compress, units) — so CI and offline
analysis can inspect counters, histogram summaries, and span totals
without re-running the workloads.
"""

import json
import os

import pytest

from repro.desktop.dejaview import RecordingConfig
from repro.workloads import run_scenario

#: The scenarios of Table 1 in presentation order (desktop last, as in the
#: paper's figures).
APP_SCENARIOS = ["web", "video", "untar", "gzip", "make", "octave", "cat"]
ALL_SCENARIOS = APP_SCENARIOS + ["desktop"]

#: Unit counts tuned so the full harness runs in minutes of host time while
#: every scenario still spans many checkpoints.
BENCH_UNITS = {
    "web": 54,       # the iBench page count
    "video": 480,    # a 20-second clip at 24 fps
    "untar": 1200,
    "gzip": 128,
    "make": 240,
    "octave": 50,
    "cat": 300,
    "desktop": 420,  # seven simulated minutes under the policy
}


def recording_config(kind, compress=False):
    """Build the per-component recording configs of Figure 2."""
    if kind == "none":
        return RecordingConfig(record_display=False, record_index=False,
                               record_checkpoints=False)
    if kind == "display":
        return RecordingConfig(record_index=False, record_checkpoints=False)
    if kind == "index":
        return RecordingConfig(record_display=False, record_checkpoints=False)
    if kind == "checkpoint":
        return RecordingConfig(record_display=False, record_index=False,
                               compress_checkpoints=compress)
    if kind == "full":
        return RecordingConfig(compress_checkpoints=compress)
    raise ValueError(kind)


class ScenarioCache:
    """Session-wide cache of scenario runs."""

    def __init__(self):
        self._runs = {}

    def get(self, name, kind="full", compress=False, units=None):
        units = units if units is not None else BENCH_UNITS[name]
        key = (name, kind, compress, units)
        if key not in self._runs:
            config = recording_config(kind, compress)
            if name == "desktop" and kind in ("full", "checkpoint"):
                config.use_policy = True
            self._runs[key] = run_scenario(name, recording=config,
                                           units=units)
        return self._runs[key]

    def telemetry_report(self):
        """JSON-ready telemetry snapshots of every cached run."""
        report = {}
        for (name, kind, compress, units), run in sorted(self._runs.items()):
            label = "%s/%s%s/units=%d" % (
                name, kind, "+compress" if compress else "", units)
            report[label] = run.dejaview.telemetry_snapshot(span_limit=2)
        return report


#: The session's cache, kept module-global so pytest_sessionfinish can dump
#: its telemetry even though fixtures are already torn down by then.
_SESSION_CACHE = [None]


@pytest.fixture(scope="session")
def scenarios():
    cache = ScenarioCache()
    _SESSION_CACHE[0] = cache
    return cache


def pytest_sessionfinish(session, exitstatus):
    """Write ``BENCH_telemetry.json`` after a bench run (artifact for CI)."""
    cache = _SESSION_CACHE[0]
    if cache is None or not cache._runs:
        return
    path = os.path.join(str(session.config.rootpath),
                        "BENCH_telemetry.json")
    with open(path, "w") as fh:
        json.dump(cache.telemetry_report(), fh, indent=2, default=str)


_CAPTURE_MANAGER = [None]


def pytest_configure(config):
    # The figure tables are the harness's primary output: they must appear
    # in the report even without `pytest -s`, so print_table temporarily
    # disables pytest's (fd-level) capture while emitting them.
    _CAPTURE_MANAGER[0] = config.pluginmanager.getplugin("capturemanager")


class _uncaptured:
    def __enter__(self):
        manager = _CAPTURE_MANAGER[0]
        self._cm = (
            manager.global_and_fixture_disabled() if manager is not None
            else None
        )
        if self._cm is not None:
            self._cm.__enter__()
        return self

    def __exit__(self, *exc):
        if self._cm is not None:
            self._cm.__exit__(*exc)
        return False


def update_artifact(request, name, section, payload):
    """Merge one section into ``BENCH_<name>.json`` in the pytest root
    (schema ``dejaview.bench_<name>/v1``), so each bench test may also
    run alone."""
    path = os.path.join(str(request.config.rootpath), "BENCH_%s.json" % name)
    data = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
    data["schema"] = "dejaview.bench_%s/v1" % name
    data[section] = payload
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, default=str)


def rank_percentile(values, q):
    """The value at rank ``round(q * (n - 1))`` of sorted ``values`` (0
    when empty) — the rule of the revive-storm and thinning artifacts."""
    ordered = sorted(values)
    if not ordered:
        return 0
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def print_table(title, headers, rows, note=None):
    """Render one figure's data as an aligned text table (uncaptured)."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    with _uncaptured():
        print()
        print("=" * len(line))
        print(title)
        print("=" * len(line))
        print(line)
        print("-" * len(line))
        for row in rows:
            print("  ".join(str(cell).ljust(w)
                            for cell, w in zip(row, widths)))
        if note:
            print("-" * len(line))
            print(note)
        print()
