"""Tests for the analyze/compare CLI subcommands and report persistence."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestAnalyze:
    def test_synthetic_characterisation(self, capsys):
        assert main(["analyze", "trace", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Trace characterisation" in out
        assert "8000" in out  # request count
        assert "Zipf" in out

    def test_trace_file(self, tmp_path, capsys):
        path = tmp_path / "t.bu"
        main(["generate-trace", "--scale", "tiny", "--out", str(path)])
        capsys.readouterr()
        assert main(["analyze", "trace", "--trace", str(path)]) == 0
        assert "unique documents" in capsys.readouterr().out


class TestCompare:
    def test_side_by_side_table(self, capsys):
        code = main([
            "compare", "--scale", "tiny", "--capacity", "256KB", "--caches", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "adhoc" in out and "ea" in out
        assert "replication" in out

    def test_policy_flag(self, capsys):
        assert main([
            "compare", "--scale", "tiny", "--capacity", "256KB", "--policy", "lfu",
        ]) == 0
        assert "LFU" in capsys.readouterr().out


class TestExperimentSaveJson:
    def test_save_json_persists_artifact(self, tmp_path, capsys):
        code = main([
            "experiment", "fig1", "--scale", "tiny",
            "--save-json", str(tmp_path),
        ])
        assert code == 0
        artifact = tmp_path / "fig1.json"
        assert artifact.exists()
        payload = json.loads(artifact.read_text())
        assert payload["experiment_id"] == "fig1"

    def test_saved_artifact_loadable_by_store(self, tmp_path, capsys):
        from repro.experiments.store import ExperimentStore

        main([
            "experiment", "table1", "--scale", "tiny",
            "--save-json", str(tmp_path),
        ])
        report = ExperimentStore(tmp_path).load("table1")
        assert report.experiment_id == "table1"
        assert report.rows


class TestProfileFrameAttribution:
    """``repro profile`` reads wall-time shares from profiler frames by
    name; a frame that is not in the stats is unknown, not zero."""

    @staticmethod
    def _shares(capsys, regimes, frames) -> str:
        from types import SimpleNamespace

        from repro.cli import _print_batch_regimes

        stats = SimpleNamespace(
            stats={
                ("batch.py", 1, name): (1, 1, seconds, seconds, {})
                for name, seconds in frames.items()
            }
        )
        _print_batch_regimes(regimes, stats, elapsed=2.0)
        return capsys.readouterr().out.splitlines()[1]

    def test_missing_scalar_frame_is_not_reported_as_zero(self, capsys):
        regimes = {"cold": 10, "hit_run": 30, "scalar": 60}
        line = self._shares(capsys, regimes, {"warm_loop": 1.0})
        assert "scalar path n/a (frame miss_path not found)" in line
        assert "resident runs n/a (frame miss_path not found)" in line
        assert "cold+precompute+post-pass 1.000s (50.0%)" in line
        assert "0.000s" not in line

    def test_missing_warm_frame_is_not_reported_as_zero(self, capsys):
        regimes = {"cold": 10, "hit_run": 30, "scalar": 0}
        line = self._shares(capsys, regimes, {})
        assert "resident runs n/a (frame warm_loop not found)" in line
        assert "cold+precompute+post-pass n/a (frame warm_loop not found)" in line
        # No scalar request ran, so no miss_path frame is a measured zero.
        assert "scalar path 0.000s (0.0%)" in line

    def test_present_frames_and_an_all_cold_run_print_seconds(self, capsys):
        regimes = {"cold": 10, "hit_run": 30, "scalar": 60}
        line = self._shares(capsys, regimes, {"warm_loop": 1.0, "miss_path": 0.75})
        assert line == (
            "batch wall-time share: resident runs 0.250s (12.5%), "
            "scalar path 0.750s (37.5%), cold+precompute+post-pass 1.000s (50.0%)"
        )
        line = self._shares(capsys, {"cold": 100, "hit_run": 0, "scalar": 0}, {})
        assert "n/a" not in line and "cold+precompute+post-pass 2.000s (100.0%)" in line
