"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import FIGURES, build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCli:
    def test_scenarios_lists_all_eight(self):
        code, output = run_cli("scenarios")
        assert code == 0
        for name in ("web", "video", "untar", "gzip", "make", "octave",
                     "cat", "desktop"):
            assert name in output

    def test_run_reports_checkpoints_and_storage(self):
        code, output = run_cli("run", "gzip", "--units", "16")
        assert code == 0
        assert "checkpoints:" in output
        assert "storage growth:" in output
        assert "sample search" in output

    def test_run_with_components_disabled(self):
        code, output = run_cli(
            "run", "gzip", "--units", "8",
            "--no-display", "--no-index", "--no-checkpoints",
        )
        assert code == 0
        assert "checkpoints:" not in output

    def test_run_compress_flag(self):
        code, output = run_cli("run", "octave", "--units", "4", "--compress")
        assert code == 0

    def test_run_policy_flag(self):
        code, output = run_cli("run", "desktop", "--units", "30", "--policy")
        assert code == 0

    def test_run_unknown_scenario_errors(self):
        from repro.common.errors import DejaViewError

        with pytest.raises(DejaViewError):
            run_cli("run", "quake3")

    def test_demo(self):
        code, output = run_cli("demo")
        assert code == 0
        assert "revived" in output
        assert "deleted file restored" in output

    def test_figures_map(self):
        code, output = run_cli("figures")
        assert code == 0
        for path in FIGURES.values():
            assert path in output

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestFlightRecorderCli:
    CRASH = "storage.cas.page_append:after=2"

    def test_doctor_post_mortem_text(self, tmp_path):
        journal = str(tmp_path / "journal")
        code, output = run_cli(
            "doctor", "web", "--faults", self.CRASH,
            "--post-mortem", "--journal-dir", journal, "--last", "12")
        assert code == 0
        assert "flight journal:" in output
        assert "CRC prefix verified" in output
        assert "FAULT" in output and "storage.cas.page_append" in output
        assert "recover.done" in output

    def test_doctor_post_mortem_json(self, tmp_path):
        import json as _json

        code, output = run_cli(
            "doctor", "web", "--faults", self.CRASH, "--post-mortem",
            "--journal-dir", str(tmp_path / "j"), "--json")
        assert code == 0
        data = _json.loads(output)
        post = data["post_mortem"]
        assert post["verified"] is True
        assert post["records_total"] > 0
        types = [r["type"] for r in post["records"]]
        assert "FAULT" in types and "RECOVERY" in types

    def test_doctor_post_mortem_in_memory(self):
        code, output = run_cli("doctor", "gzip", "--units", "4",
                               "--post-mortem")
        assert code == 0
        assert "flight journal:" in output

    def test_doctor_trace_out(self, tmp_path):
        import json as _json

        trace = str(tmp_path / "trace.json")
        code, _ = run_cli("doctor", "gzip", "--units", "4",
                          "--post-mortem", "--trace-out", trace)
        assert code == 0
        document = _json.loads(open(trace).read())
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_stats_faults_table(self):
        code, output = run_cli(
            "stats", "web", "--units", "4", "--faults",
            "recorder.log.append:mode=io,after=5")
        assert code == 0
        assert "failpoints (hits / fired):" in output
        assert "recorder.log.append" in output
        assert "fired=1" in output

    def test_stats_faults_json(self):
        import json as _json

        code, output = run_cli(
            "stats", "web", "--units", "4", "--json", "--faults",
            "recorder.log.append:mode=io,after=5")
        assert code == 0
        faults = _json.loads(output)["faults"]
        assert faults["recorder.log.append"]["fired"] == 1

    def test_top_text(self):
        code, output = run_cli("top", "--sessions", "2", "--frames", "3",
                               "--steps-per-frame", "8")
        assert code == 0
        assert "frame 0" in output
        assert "queue=" in output and "dedup=" in output
        assert "slo=" in output
        assert "fleet settled:" in output

    def test_top_json(self):
        import json as _json

        code, output = run_cli("top", "--sessions", "2", "--frames", "2",
                               "--steps-per-frame", "8", "--json")
        assert code == 0
        data = _json.loads(output)
        assert data["frames"]
        frame = data["frames"][0]
        assert frame["queue_depth"] >= 0
        assert {m["name"] for m in frame["members"]} == {"s00", "s01"}
        assert "slo_standing" in frame
        assert "final" in data

    def test_serve_exports(self, tmp_path):
        import json as _json

        trace = str(tmp_path / "trace.json")
        prom = str(tmp_path / "metrics.prom")
        code, output = run_cli(
            "serve", "--sessions", "2", "--trace-out", trace,
            "--prom-out", prom)
        assert code == 0
        assert "slo standings" in output
        assert "flight journal:" in output
        document = _json.loads(open(trace).read())
        assert any(e["ph"] == "X" for e in document["traceEvents"])
        body = open(prom).read()
        assert "# TYPE dejaview_checkpoint_count counter" in body
        assert 'fleet_seed="0"' in body

    def test_replay_clean_text(self):
        code, output = run_cli("replay", "web", "--units", "4")
        assert code == 0
        assert "replay clean:" in output
        assert "anchors [1, 2]" in output

    def test_replay_from_checkpoint_verify(self):
        code, output = run_cli("replay", "web", "--units", "4",
                               "--from-checkpoint", "2", "--verify")
        assert code == 0
        assert "fast-forwarded to checkpoint 2 anchor" in output

    def test_replay_faulted_json(self, tmp_path):
        import json as _json

        report_path = str(tmp_path / "replay.json")
        code, output = run_cli(
            "replay", "web", "--units", "4", "--faults", self.CRASH,
            "--report-out", report_path, "--json")
        assert code == 0
        data = _json.loads(output)
        assert data["verified"] is True
        assert data["crash"] and data["recovery_ok"] is True
        report = data["report"]
        assert report["stopped_at_recover"] is True
        assert report["replay_crashed"] is True
        assert report["crash_site"] == "storage.cas.page_append"
        assert _json.loads(open(report_path).read()) == data

    def test_replay_log_out(self, tmp_path):
        from repro.replay import assert_replays_clean

        log_path = str(tmp_path / "events.bin")
        code, _ = run_cli("replay", "gzip", "--units", "4",
                          "--log-out", log_path)
        assert code == 0
        assert_replays_clean(open(log_path, "rb").read())

    def test_fleet_stats_slo_json(self):
        import json as _json

        code, output = run_cli(
            "fleet-stats", "--sessions", "2", "--json",
            "--slo", "dedup_ratio>=0.99;crash_count<=0")
        assert code == 0
        data = _json.loads(output)
        verdicts = {v["name"]: v for v in data["slo"]["verdicts"]}
        assert verdicts["dedup_ratio"]["ok"] is False
        assert verdicts["crash_count"]["ok"] is True

    def test_thin_crash_reports_both_passes(self):
        import json as _json

        code, output = run_cli(
            "thin", "desktop", "--units", "60", "--recent-window", "2",
            "--tiers", "inf:2", "--verify", "--crash", "--json")
        assert code == 0
        data = _json.loads(output)
        assert data["ok"] and data["recovery_ok"] is True
        # The crashed pass's tombstones count too, not just the re-run's.
        assert data["thinned"] and data["bytes_freed"] > 0
        assert set(data["verified"]) >= set(data["thinned"])

    def test_revive_storm_crash_json(self):
        import json as _json

        code, output = run_cli("revive-storm", "--branches", "4",
                               "--crash-branch", "1", "--seed", "1",
                               "--json")
        assert code == 0
        data = _json.loads(output)
        crashed = data["storm"]["crashed"]
        assert crashed["recovery_ok"] is True
        branches = {name: info["state"]
                    for name, info in data["final"]["sessions"].items()
                    if info["kind"] == "branch"}
        assert len(branches) == 4
        assert all(state == "done" for name, state in branches.items()
                   if name != crashed["name"])
        assert data["final"]["cas"]["refcount_consistent"]
