"""Tests for the analyze/compare CLI subcommands and report persistence."""

from __future__ import annotations

import json

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

