"""Offline event-stream tooling: tail, summarize, diff."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.events import RunRecorder
from repro.obs.registry import ObsError
from repro.obs.tools import diff_events, summarize_events, tail_events


def write_stream(path, mutate=None):
    """A small hand-driven stream with every summarised feature present."""
    sink = io.StringIO()
    recorder = RunRecorder(sink)
    recorder.begin("cfg", "fp")
    recorder.request(10.0, 0, "a", "miss", 100, None, True, False, 2)
    recorder.placement_origin(10.0, 0, "a", 100, 5.0, True)
    recorder.placement_remote(20.0, 1, "a", 100, 3.0, 3.0, False, True)  # eq tie
    recorder.promotion(20.0, 0, "a", 3.0, 9.0, True)
    recorder.promotion(25.0, 0, "a", 4.0, 4.0, False)  # eq tie
    recorder.request(20.0, 1, "a", "remote_hit", 100, 0, False, True, 4)
    recorder.request(30.0, 1, "a", "local_hit", 100, None, False, False, 0)
    recorder.eviction(40.0, 0, "b", 64, 2.0)
    recorder.eviction(41.0, 0, "c", 36, 3.0)
    recorder.end()
    lines = sink.getvalue().splitlines(keepends=True)
    if mutate is not None:
        lines = mutate(lines)
    path.write_text("".join(lines), encoding="utf-8")
    return path


class TestTail:
    def test_last_n_lines(self, tmp_path):
        path = write_stream(tmp_path / "s.jsonl")
        tail = tail_events(str(path), count=2)
        assert len(tail) == 2
        assert tail[-1] == '{"e":"end","requests":3}'

    def test_count_beyond_file_returns_all(self, tmp_path):
        path = write_stream(tmp_path / "s.jsonl")
        assert len(tail_events(str(path), count=500)) == 11

    def test_zero_count_empty(self, tmp_path):
        path = write_stream(tmp_path / "s.jsonl")
        assert tail_events(str(path), count=0) == []

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ObsError, match="empty event file"):
            tail_events(str(path), count=3)


class TestSummarize:
    def test_rollup(self, tmp_path):
        summary = summarize_events(str(write_stream(tmp_path / "s.jsonl")))
        assert summary["events"] == {
            "run": 1, "request": 3, "placement": 2, "promotion": 2,
            "evict": 2, "end": 1,
        }
        assert summary["requests_by_kind"] == {
            "local_hit": 1, "miss": 1, "remote_hit": 1
        }
        assert summary["requests_stored"] == 1
        assert summary["placements_by_role"] == {
            "origin": {"attempted": 1, "stored": 1},
            "remote": {"attempted": 1, "stored": 0},
        }
        assert summary["promotions"] == {"granted": 1, "withheld": 1}
        assert summary["age_ties"] == 2  # the eq placement + the eq promotion
        assert summary["evicted_bytes"] == 100
        assert summary["time_span"] == [10.0, 41.0]

    def test_empty_stream_is_an_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ObsError, match="empty event file"):
            summarize_events(str(path))

    def test_corrupt_line_reports_position(self, tmp_path):
        path = write_stream(tmp_path / "s.jsonl", mutate=lambda ls: ls[:4] + ["{broken\n"])
        with pytest.raises(ObsError, match=r"s\.jsonl:5: malformed event line"):
            summarize_events(str(path))

    def test_distributions_carry_quantiles(self, tmp_path):
        summary = summarize_events(str(write_stream(tmp_path / "s.jsonl")))
        sizes = summary["distributions"]["request.size_bytes"]
        assert sizes["count"] == 3
        assert sizes["p50"] == sizes["p95"] == sizes["p99"] == 100.0
        ages = summary["distributions"]["evict.age_s"]
        assert ages["count"] == 2
        assert ages["min"] == 2.0 and ages["max"] == 3.0

    def test_distributions_are_name_sorted_and_json_safe(self, tmp_path):
        summary = summarize_events(str(write_stream(tmp_path / "s.jsonl")))
        names = list(summary["distributions"])
        assert names == sorted(names) == [
            "evict.age_s", "evict.size_bytes", "request.size_bytes"
        ]
        # ``repro obs summarize`` prints this dict as JSON; a stray inf or
        # NaN from an empty histogram would not be valid JSON.
        json.dumps(summary, allow_nan=False)

    def test_empty_distributions_are_omitted(self, tmp_path):
        # No evictions: the evict histograms stay empty and are left out
        # rather than reported with inf/-inf extremes.
        path = write_stream(
            tmp_path / "s.jsonl",
            mutate=lambda ls: [ln for ln in ls if '"e":"evict"' not in ln],
        )
        summary = summarize_events(str(path))
        assert list(summary["distributions"]) == ["request.size_bytes"]


class TestDiff:
    def test_identical_streams(self, tmp_path):
        left = write_stream(tmp_path / "left.jsonl")
        right = write_stream(tmp_path / "right.jsonl")
        assert diff_events(str(left), str(right)) is None

    def test_first_divergence_reported(self, tmp_path):
        left = write_stream(tmp_path / "left.jsonl")

        def flip(lines):
            lines[3] = lines[3].replace('"stored":false', '"stored":true')
            return lines

        right = write_stream(tmp_path / "right.jsonl", mutate=flip)
        number, left_line, right_line = diff_events(str(left), str(right))
        assert number == 4
        assert '"stored":false' in left_line
        assert '"stored":true' in right_line

    def test_truncated_file_diverges_at_missing_line(self, tmp_path):
        left = write_stream(tmp_path / "left.jsonl")
        right = write_stream(tmp_path / "right.jsonl", mutate=lambda ls: ls[:-1])
        number, left_line, right_line = diff_events(str(left), str(right))
        assert number == 11
        assert left_line == '{"e":"end","requests":3}'
        assert right_line is None
