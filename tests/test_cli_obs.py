"""CLI surface of the observability layer: --events capture and repro obs."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.fastpath.batch import batch_fastloop_reason
from repro.simulation.simulator import SimulationConfig


def simulate_with_events(path, engine="object", extra=()):
    return main([
        "simulate", "--scheme", "ea", "--caches", "2", "--capacity", "256KB",
        "--scale", "tiny", "--engine", engine,
        "--events", str(path), "--snapshot-interval", "600",
        *extra,
    ])


@pytest.fixture()
def events_file(tmp_path):
    path = tmp_path / "run.jsonl"
    assert simulate_with_events(path) == 0
    return path


class TestSimulateEvents:
    def test_writes_stream_and_manifest(self, tmp_path, capsys):
        events_file = tmp_path / "run.jsonl"
        assert simulate_with_events(events_file) == 0
        out = capsys.readouterr().out
        assert "events:" in out and str(events_file) in out
        assert f"manifest: {events_file}.manifest.json" in out
        manifest = json.loads(
            (events_file.parent / f"{events_file.name}.manifest.json").read_text(
                encoding="utf-8"
            )
        )
        assert manifest["schema"] == "repro-manifest/1"
        assert manifest["events"]["path"] == str(events_file)
        assert manifest["events"]["counts"]["snapshot"] >= 1

    def test_stream_validates(self, events_file, capsys):
        assert main(["obs", "validate", str(events_file)]) == 0
        assert "valid (" in capsys.readouterr().out

    def test_manifest_validates(self, tmp_path, capsys):
        events_file = tmp_path / "run.jsonl"
        assert simulate_with_events(events_file, engine="batch") == 0
        manifest_path = tmp_path / "run.jsonl.manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert "observer" in manifest["fastloop_reason"]
        capsys.readouterr()
        assert main(["obs", "validate", str(manifest_path)]) == 0
        assert "valid manifest" in capsys.readouterr().out
        del manifest["fastloop_reason"]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["obs", "validate", str(manifest_path)]) == 1
        assert "missing keys ['fastloop_reason']" in capsys.readouterr().out

    def test_sanitized_run_can_record_events(self, tmp_path, capsys):
        path = tmp_path / "san.jsonl"
        assert simulate_with_events(path, extra=("--sanitize",)) == 0
        assert "sanitizer" in capsys.readouterr().out
        assert main(["obs", "validate", str(path)]) == 0


class TestObsDiff:
    def test_cross_engine_streams_identical(self, tmp_path, capsys):
        left = tmp_path / "object.jsonl"
        right = tmp_path / "columnar.jsonl"
        assert simulate_with_events(left, engine="object") == 0
        assert simulate_with_events(right, engine="columnar") == 0
        assert main(["obs", "diff", str(left), str(right)]) == 0
        assert "streams identical" in capsys.readouterr().out

    def test_divergence_reports_line(self, events_file, tmp_path, capsys):
        mutated = tmp_path / "mutated.jsonl"
        lines = events_file.read_text(encoding="utf-8").splitlines()
        lines[5] = lines[5].replace('"e":', '"e" :', 1)
        mutated.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["obs", "diff", str(events_file), str(mutated)]) == 1
        assert "diverge at line 6" in capsys.readouterr().out

    def test_wrong_arity_rejected(self, events_file):
        assert main(["obs", "diff", str(events_file)]) == 2


class TestObsTailSummarizeValidate:
    def test_tail_prints_last_lines(self, events_file, capsys):
        assert main(["obs", "tail", str(events_file), "-n", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[-1].startswith('{"e":"end"')

    def test_summarize_table(self, events_file, capsys):
        assert main(["obs", "summarize", str(events_file)]) == 0
        out = capsys.readouterr().out
        assert "Event stream:" in out
        assert "requests: " in out

    def test_summarize_json(self, events_file, capsys):
        assert main(["obs", "summarize", str(events_file), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"]["run"] == 1
        assert summary["events"]["end"] == 1

    def test_validate_flags_corruption(self, events_file, capsys):
        corrupt = events_file.parent / "corrupt.jsonl"
        corrupt.write_text(
            events_file.read_text(encoding="utf-8") + "{broken\n", encoding="utf-8"
        )
        assert main(["obs", "validate", str(corrupt)]) == 1
        assert "INVALID" in capsys.readouterr().out

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_validate_rejects_non_json_number_tokens(self, events_file, token, capsys):
        """Python's json reads NaN / Infinity; JSON has neither."""
        lines = events_file.read_text(encoding="utf-8").splitlines(keepends=True)
        header = json.loads(lines[0])
        assert header["snapshot_interval"] == 600.0
        lines[0] = lines[0].replace('"snapshot_interval":600.0', f'"snapshot_interval":{token}')
        bad = events_file.parent / "bad.jsonl"
        bad.write_text("".join(lines), encoding="utf-8")
        assert main(["obs", "validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"line 1: invalid JSON ({token} is not JSON)" in out

    def test_validate_rejects_a_manifest_with_nan(self, tmp_path, capsys):
        events_file = tmp_path / "run.jsonl"
        assert simulate_with_events(events_file) == 0
        manifest_path = tmp_path / "run.jsonl.manifest.json"
        text, replaced = re.subn(
            r'"wall_time_s": [^,}]+', '"wall_time_s": NaN',
            manifest_path.read_text(encoding="utf-8"),
        )
        assert replaced == 1
        manifest_path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["obs", "validate", str(manifest_path)]) == 1
        assert "NaN is not JSON" in capsys.readouterr().out

    @pytest.mark.parametrize("interval", ["nan", "inf", "-inf", "-1", "-0.5"])
    def test_bad_snapshot_interval_is_a_usage_error(self, tmp_path, interval, capsys):
        """Used to write NaN / Infinity into the header, or clamp to 0."""
        events_file = tmp_path / "run.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main([
                "simulate", "--scale", "tiny", "--events", str(events_file),
                f"--snapshot-interval={interval}",
            ])
        assert exit_info.value.code == 2
        assert "argument --snapshot-interval: invalid interval" in capsys.readouterr().err
        assert not events_file.exists()


class TestSimulateSpansAndTimeseries:
    def simulate_traced(self, tmp_path, extra=()):
        trace = tmp_path / "run.trace.json"
        series = tmp_path / "run.ts.jsonl"
        code = main([
            "simulate", "--scheme", "ea", "--caches", "2", "--capacity", "256KB",
            "--scale", "tiny", "--engine", "batch", "--chunk-size", "2048",
            "--trace-out", str(trace), "--timeseries", str(series), *extra,
        ])
        return code, trace, series

    def test_trace_and_timeseries_written_and_validate(self, tmp_path, capsys):
        code, trace, series = self.simulate_traced(tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert f"trace: {trace}" in out
        assert f"timeseries: {series}" in out
        assert main(["obs", "validate", str(trace), str(series)]) == 0
        out = capsys.readouterr().out
        assert "valid span trace" in out and "nested" in out
        assert "valid timeseries" in out

    def test_timeline_and_report_render(self, tmp_path, capsys):
        code, trace, series = self.simulate_traced(tmp_path)
        assert code == 0
        capsys.readouterr()
        assert main(["obs", "timeline", str(trace)]) == 0
        out = capsys.readouterr().out
        # Without numpy the batch engine replays on the columnar core,
        # under that core's root span.
        fast = batch_fastloop_reason(SimulationConfig(engine="batch")) is None
        assert "timeline:" in out
        assert ("engine:batch" if fast else "engine:columnar") in out
        assert main(["obs", "report", str(series)]) == 0
        out = capsys.readouterr().out
        assert "timeseries: engine=batch" in out
        assert "hit ratio" in out

    def test_track_memory_prints_peak(self, tmp_path, capsys):
        code, _, _ = self.simulate_traced(tmp_path, extra=("--track-memory",))
        assert code == 0
        assert "peak memory: " in capsys.readouterr().out


class TestObsCorruptInputs:
    """Every obs action fails cleanly on broken files: error + exit 2."""

    def check(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")

    def test_missing_file(self, tmp_path, capsys):
        for action in ("tail", "summarize", "validate", "timeline", "report"):
            self.check(["obs", action, str(tmp_path / "absent")], capsys)

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        self.check(["obs", "tail", str(path)], capsys)
        self.check(["obs", "summarize", str(path)], capsys)
        self.check(["obs", "report", str(path)], capsys)

    def test_truncated_timeseries(self, tmp_path, capsys):
        path = tmp_path / "trunc.jsonl"
        path.write_text(
            '{"schema":"repro-timeseries/1","k":"begin","engine":"batch"}\n',
            encoding="utf-8",
        )
        self.check(["obs", "report", str(path)], capsys)
        # validate *reports* invalid files (exit 1) rather than erroring out.
        assert main(["obs", "validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_corrupt_mid_record(self, tmp_path, events_file, capsys):
        path = tmp_path / "corrupt.jsonl"
        lines = events_file.read_text(encoding="utf-8").splitlines()
        lines[4] = "{broken"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.check(["obs", "summarize", str(path)], capsys)
        err = capsys.readouterr()  # drained above; re-run for the message
        assert main(["obs", "summarize", str(path)]) == 2
        assert "malformed event line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, complaint",
        [
            ('{"e":"request","t":1.0}', "request event needs a string 'kind'"),
            ('{"e":"request","kind":["miss"]}', "request event needs a string 'kind'"),
            ('{"e":"placement"}', "placement event needs a string 'role'"),
            ('{"e":"evict","size":"x"}', "evict event needs a numeric 'size'"),
            ('{"e":["evict"]}', "event type 'e' is ['evict']"),
        ],
    )
    def test_summarize_well_formed_json_with_a_bad_field(
        self, line, complaint, tmp_path, events_file, capsys
    ):
        """Valid JSON, unusable field: still ``path:line``, never a traceback."""
        path = tmp_path / "badfield.jsonl"
        lines = events_file.read_text(encoding="utf-8").splitlines()
        lines[4] = line
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["obs", "summarize", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:5: ")
        assert complaint in err
        assert "Traceback" not in err

    def test_timeline_on_non_trace_json(self, tmp_path, capsys):
        path = tmp_path / "not-a-trace.json"
        path.write_text('{"traceEvents": 7}', encoding="utf-8")
        self.check(["obs", "timeline", str(path)], capsys)

    def test_summarize_quantile_rows(self, events_file, capsys):
        assert main(["obs", "summarize", str(events_file)]) == 0
        out = capsys.readouterr().out
        assert "request.size_bytes p50/p95/p99" in out


class TestSweepObsFlags:
    def test_sweep_with_events_progress_and_memo(self, tmp_path, capsys):
        events = tmp_path / "events"
        code = main([
            "sweep", "--scale", "tiny", "--capacity", "256KB", "--capacity", "512KB",
            "--seed", "5", "--jobs", "2", "--progress",
            "--events", str(events), "--snapshot-interval", "600",
            "--memo", str(tmp_path / "memo"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[4/4]" in out
        assert "4 points" in out
        assert f"events: {events}" in out
        written = sorted(p.name for p in events.iterdir())
        assert len(written) == 4
        for name in written:
            assert main(["obs", "validate", str(events / name)]) == 0

    def test_sweep_trace_out_merges_worker_lanes(self, tmp_path, capsys):
        trace = tmp_path / "sweep.trace.json"
        code = main([
            "sweep", "--scale", "tiny", "--capacity", "256KB", "--capacity", "512KB",
            "--seed", "5", "--jobs", "2", "--engine", "batch",
            "--trace-out", str(trace), "--track-memory",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"trace: {trace}" in out
        assert "peak worker memory:" in out
        assert "batch regimes:" in out
        assert main(["obs", "validate", str(trace)]) == 0
        assert main(["obs", "timeline", str(trace)]) == 0
        out = capsys.readouterr().out
        # One lane per sweep point, labeled capacity/scheme.
        assert "lane 1 (256KB/adhoc)" in out
        assert "lane 4 (512KB/ea)" in out
