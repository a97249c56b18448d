"""Unit tests for the experiment result store and report diffing."""

from __future__ import annotations

import math

import pytest

from repro.errors import ExperimentError
from repro.experiments.report import ExperimentReport
from repro.experiments.store import CellDiff, ExperimentStore, diff_reports


def make_report(hit=0.5, label="100KB"):
    report = ExperimentReport(
        experiment_id="figX", title="Test", headers=["aggregate", "hit"]
    )
    report.add_row(label, hit)
    report.add_note("a note")
    return report


class TestStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.save(make_report())
        loaded = store.load("figX")
        assert loaded.headers == ["aggregate", "hit"]
        assert loaded.rows == [["100KB", 0.5]]
        assert loaded.notes == ["a note"]
        assert loaded.title == "Test"

    def test_infinity_roundtrip(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.save(make_report(hit=math.inf))
        loaded = store.load("figX")
        assert math.isinf(loaded.rows[0][1])

    def test_load_missing(self, tmp_path):
        with pytest.raises(ExperimentError, match="no stored report"):
            ExperimentStore(tmp_path).load("ghost")

    def test_corrupt_artifact(self, tmp_path):
        store = ExperimentStore(tmp_path)
        (tmp_path / "bad.json").write_text("{\"nope\": true}")
        with pytest.raises(ExperimentError, match="corrupt"):
            store.load("bad")

    def test_save_replaces_an_existing_report(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.save(make_report(hit=0.5))
        store.save(make_report(hit=0.9))
        assert store.load("figX").rows == [["100KB", 0.9]]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["figX.json"]

    def test_failed_save_keeps_the_old_report(self, tmp_path, monkeypatch):
        store = ExperimentStore(tmp_path)
        store.save(make_report(hit=0.5))
        failing = make_report(hit=0.9)
        # A lone surrogate cannot be encoded as UTF-8: the write fails
        # part-way, after the target would have been opened.
        monkeypatch.setattr(failing, "to_json", lambda: '{"rows": "\ud800"}')
        with pytest.raises(UnicodeEncodeError):
            store.save(failing)
        assert store.load("figX").rows == [["100KB", 0.5]]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["figX.json"]

    def test_list_and_exists(self, tmp_path):
        store = ExperimentStore(tmp_path)
        assert store.list_ids() == []
        store.save(make_report())
        assert store.list_ids() == ["figX"]
        assert store.exists("figX")
        assert not store.exists("other")

    def test_invalid_id(self, tmp_path):
        with pytest.raises(ExperimentError):
            ExperimentStore(tmp_path).load("a/b")

    def test_creates_directory(self, tmp_path):
        nested = tmp_path / "deep" / "dir"
        ExperimentStore(nested)
        assert nested.is_dir()


class TestDiffReports:
    def test_identical_reports_no_diffs(self):
        assert diff_reports(make_report(), make_report()) == []

    def test_numeric_drift_reported_with_delta(self):
        diffs = diff_reports(make_report(hit=0.5), make_report(hit=0.6))
        [diff] = diffs
        assert diff.column == "hit"
        assert diff.delta == pytest.approx(0.1)

    def test_tolerance_suppresses_noise(self):
        assert diff_reports(make_report(0.5), make_report(0.5004), tolerance=0.001) == []

    def test_string_change_reported_without_delta(self):
        diffs = diff_reports(make_report(label="100KB"), make_report(label="1MB"))
        [diff] = diffs
        assert diff.delta is None
        assert diff.baseline == "100KB"

    def test_header_mismatch_is_structural(self):
        other = ExperimentReport(experiment_id="x", title="t", headers=["a"])
        with pytest.raises(ExperimentError, match="header"):
            diff_reports(make_report(), other)

    def test_row_count_mismatch(self):
        longer = make_report()
        longer.add_row("1MB", 0.7)
        with pytest.raises(ExperimentError, match="row-count"):
            diff_reports(make_report(), longer)
