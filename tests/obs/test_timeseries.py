"""The repro-timeseries/1 stream: recorder framing, reader, report.

The recorder differences cumulative engine counters into per-chunk
deltas; the reader enforces the same strictness the obs CLI promises
(clean :class:`ObsError` on empty/truncated/corrupt files, never a
traceback); the report renders sparklines. The engine-integration test
checks the stream a real batch replay emits sums back to the run totals
without perturbing the result.
"""

from __future__ import annotations

import io
import json
import tracemalloc

import pytest

from repro.fastpath.batch import batch_fastloop_reason
from repro.obs.registry import ObsError
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    TimeseriesRecorder,
    read_timeseries,
    render_report,
)
from repro.simulation.simulator import SimulationConfig, run_simulation

CAPACITY = 900_000


def sample_kwargs(**overrides):
    """Cumulative counter readings with every required key present."""
    base = dict(
        requests=100, local_hits=10, remote_hits=5, evictions=2, admissions=40,
        declined=3, promoted=1, bytes_local=1000, bytes_remote=500,
        body_bytes=9000, residency_bytes=123456, t_last=50.0,
    )
    base.update(overrides)
    return base


class TestRecorder:
    def record(self, track_memory=False):
        sink = io.StringIO()
        recorder = TimeseriesRecorder(sink, track_memory=track_memory)
        recorder.begin("cfg123", "fp456", "batch")
        recorder.sample(**sample_kwargs(cold=80, hit_run=15, scalar=5))
        recorder.sample(
            **sample_kwargs(
                requests=250, local_hits=60, remote_hits=15, evictions=12,
                admissions=90, declined=10, promoted=4, bytes_local=5000,
                bytes_remote=2000, body_bytes=20000, residency_bytes=200000,
                t_last=120.0, cold=80, hit_run=140, scalar=30,
            )
        )
        recorder.end()
        return [json.loads(line) for line in sink.getvalue().splitlines()]

    def test_framing_and_header(self):
        records = self.record()
        assert [r["k"] for r in records] == ["begin", "sample", "sample", "end"]
        header, first, second, trailer = records
        assert header["schema"] == TIMESERIES_SCHEMA
        assert (header["config"], header["trace"], header["engine"]) == (
            "cfg123", "fp456", "batch"
        )
        assert trailer["chunks"] == 2 and trailer["requests"] == 250

    def test_cumulative_counters_become_deltas(self):
        _, first, second, _ = self.record()
        assert (first["requests"], second["requests"]) == (100, 150)
        assert (first["hits"], second["hits"]) == (15, 60)
        assert (first["evictions"], second["evictions"]) == (2, 10)
        assert (first["placements_declined"], second["placements_declined"]) == (3, 7)
        assert (first["promotions_granted"], second["promotions_granted"]) == (1, 3)
        assert first["hit_ratio"] == pytest.approx(15 / 100)
        assert second["hit_ratio"] == pytest.approx(60 / 150)
        # Gauges pass through un-differenced.
        assert second["residency_bytes"] == 200000

    def test_regime_occupancy_is_also_differenced(self):
        _, first, second, _ = self.record()
        assert first["regime"] == {"cold": 80, "hit_run": 15, "scalar": 5}
        assert second["regime"] == {"cold": 0, "hit_run": 125, "scalar": 25}

    def test_memory_high_water_mark_when_tracing(self):
        already = tracemalloc.is_tracing()
        if not already:
            tracemalloc.start()
        try:
            records = self.record(track_memory=True)
        finally:
            if not already:
                tracemalloc.stop()
        assert all(r["mem_hwm"] > 0 for r in records if r["k"] == "sample")

    def test_memory_key_omitted_when_not_tracing(self):
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc active in this process")
        records = self.record(track_memory=True)
        assert all("mem_hwm" not in r for r in records if r["k"] == "sample")

    def test_sample_and_end_require_begin(self):
        recorder = TimeseriesRecorder(io.StringIO())
        with pytest.raises(ObsError, match="before begin"):
            recorder.sample(**sample_kwargs())
        with pytest.raises(ObsError, match="before begin"):
            recorder.end()


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


HEADER = json.dumps(
    {"schema": TIMESERIES_SCHEMA, "k": "begin", "config": "c", "trace": "t",
     "engine": "batch"}
)
TRAILER = json.dumps({"k": "end", "chunks": 0, "requests": 0, "wall_s": 0.1})


class TestReader:
    def test_round_trip(self, tmp_path):
        sink = io.StringIO()
        recorder = TimeseriesRecorder(sink)
        recorder.begin("c", "t", "columnar")
        recorder.sample(**sample_kwargs())
        recorder.end()
        path = tmp_path / "ts.jsonl"
        path.write_text(sink.getvalue(), encoding="utf-8")
        data = read_timeseries(str(path))
        assert data["header"]["engine"] == "columnar"
        assert len(data["samples"]) == 1
        assert data["trailer"]["chunks"] == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ObsError, match="cannot read timeseries file"):
            read_timeseries(str(tmp_path / "absent.jsonl"))

    def test_empty_file_has_no_header(self, tmp_path):
        path = write_lines(tmp_path / "empty.jsonl", [])
        with pytest.raises(ObsError, match="no header"):
            read_timeseries(str(path))

    def test_truncated_stream_has_no_trailer(self, tmp_path):
        path = write_lines(tmp_path / "trunc.jsonl", [HEADER])
        with pytest.raises(ObsError, match="truncated stream"):
            read_timeseries(str(path))

    def test_corrupt_record_reports_line(self, tmp_path):
        path = write_lines(tmp_path / "bad.jsonl", [HEADER, "{broken", TRAILER])
        with pytest.raises(ObsError, match=r"bad\.jsonl:2: corrupt record"):
            read_timeseries(str(path))

    def test_unknown_kind_and_wrong_schema(self, tmp_path):
        path = write_lines(tmp_path / "kind.jsonl", [HEADER, '{"k":"what"}'])
        with pytest.raises(ObsError, match="unknown record kind 'what'"):
            read_timeseries(str(path))
        path = write_lines(
            tmp_path / "schema.jsonl",
            [json.dumps({"schema": "other/9", "k": "begin"})],
        )
        with pytest.raises(ObsError, match="unexpected schema 'other/9'"):
            read_timeseries(str(path))


class TestReport:
    def test_sparklines_and_regime_rows(self, tmp_path):
        sink = io.StringIO()
        recorder = TimeseriesRecorder(sink)
        recorder.begin("c", "t", "batch")
        for i in range(1, 9):
            recorder.sample(
                **sample_kwargs(
                    requests=100 * i, local_hits=10 * i, remote_hits=5 * i,
                    evictions=2 * i, declined=3 * i, promoted=i,
                    t_last=50.0 * i, cold=80, hit_run=15 * i, scalar=5 * i,
                )
            )
        recorder.end()
        path = tmp_path / "ts.jsonl"
        path.write_text(sink.getvalue(), encoding="utf-8")
        out = render_report(read_timeseries(str(path)))
        assert "timeseries: engine=batch chunks=8 requests=800" in out
        for label in ("req/s", "hit ratio", "evictions", "ea declined",
                      "regime:cold", "regime:hit_run"):
            assert label in out

    def test_no_samples(self):
        data = {
            "header": {"engine": "batch"},
            "samples": [],
            "trailer": {"chunks": 0, "requests": 0, "wall_s": 0.25},
        }
        assert "(no samples)" in render_report(data)


class TestEngineIntegration:
    @pytest.mark.parametrize("engine", ["columnar", "batch"])
    def test_samples_sum_to_run_totals(self, obs_trace, engine):
        config = SimulationConfig(
            scheme="ea", aggregate_capacity=CAPACITY, engine=engine
        )
        sink = io.StringIO()
        recorder = TimeseriesRecorder(sink)
        recorder.begin("c", obs_trace.fingerprint(), engine)
        result = run_simulation(
            config, obs_trace, chunk_size=512, timeseries=recorder
        )
        recorder.end()
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        samples = [r for r in records if r["k"] == "sample"]
        assert len(samples) == 4  # 2000 requests in 512-request chunks
        assert sum(s["requests"] for s in samples) == result.metrics.requests
        hits = result.metrics.local_hits + result.metrics.remote_hits
        assert sum(s["hits"] for s in samples) == hits
        assert records[-1]["requests"] == result.metrics.requests
        if engine == "batch" and batch_fastloop_reason(config) is None:
            regime_total = sum(sum(s["regime"].values()) for s in samples)
            assert regime_total == result.metrics.requests
        else:
            # The columnar core (also batch's no-numpy fallback) has no regimes.
            assert not any("regime" in s for s in samples)
