"""Sweep telemetry: progress callbacks, per-worker roll-ups, event capture.

All of it out-of-band: wall times and worker pids ride on
``SweepResult.telemetry`` and the progress stream, never inside results —
the byte-identity tests in test_runner.py stay authoritative.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.sweep import run_capacity_sweep
from repro.fastpath.batch import batch_fastloop_reason
from repro.obs.schema import validate_events_file
from repro.obs.session import sweep_event_filename
from repro.parallel import SweepMemoStore, SweepProgress, SweepTelemetry, TaskReport
from repro.simulation.simulator import SimulationConfig
from repro.trace.synthetic import SyntheticTraceConfig, generate_trace

CAPACITIES = [("64KB", 64 * 1024), ("512KB", 512 * 1024)]


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        SyntheticTraceConfig(num_requests=1500, num_documents=200, num_clients=8, seed=11)
    )


def _report(index=0, memoized=False, pid=4242, wall=1.5):
    return TaskReport(
        index=index,
        capacity_label="64KB",
        scheme="ea",
        memoized=memoized,
        worker_pid=None if memoized else pid,
        wall_time_s=0.0 if memoized else wall,
    )


class TestRendering:
    def test_simulated_line_shows_pid_and_wall(self):
        progress = SweepProgress(completed=2, total=4, report=_report())
        assert progress.render() == "[2/4] 64KB/ea (pid 4242, 1.50s)"

    def test_memo_line_shows_memo(self):
        progress = SweepProgress(completed=1, total=4, report=_report(memoized=True))
        assert progress.render() == "[1/4] 64KB/ea (memo)"


class TestSweepTelemetry:
    def _telemetry(self):
        return SweepTelemetry(
            reports=[
                _report(0, pid=1, wall=1.0),
                _report(1, memoized=True),
                _report(2, pid=2, wall=2.0),
                _report(3, pid=1, wall=0.5),
            ]
        )

    def test_aggregates(self):
        telemetry = self._telemetry()
        assert telemetry.tasks == 4
        assert telemetry.memo_hits == 1
        assert telemetry.simulated == 3
        assert telemetry.total_wall_time_s == pytest.approx(3.5)

    def test_by_worker_folds_count_and_wall(self):
        by_worker = self._telemetry().by_worker()
        assert by_worker[1] == (2, pytest.approx(1.5))
        assert by_worker[2] == (1, pytest.approx(2.0))

    def test_summary_mentions_the_numbers(self):
        summary = self._telemetry().summary()
        assert "4 points" in summary
        assert "1 memoized" in summary
        assert "3 simulated" in summary
        assert "worker 1: 2 points" in summary


class TestSweepIntegration:
    def test_progress_ticks_arrive_in_order(self, trace):
        ticks = []
        sweep = run_capacity_sweep(
            trace, CAPACITIES, jobs=2, progress=ticks.append
        )
        assert [t.completed for t in ticks] == [1, 2, 3, 4]
        assert all(t.total == 4 for t in ticks)
        assert {(t.report.capacity_label, t.report.scheme) for t in ticks} == {
            ("64KB", "adhoc"), ("64KB", "ea"), ("512KB", "adhoc"), ("512KB", "ea"),
        }
        assert sweep.telemetry is not None
        assert sweep.telemetry.simulated == 4

    def test_observed_sweep_byte_identical_to_plain(self, trace, tmp_path):
        plain = run_capacity_sweep(trace, CAPACITIES)
        observed = run_capacity_sweep(
            trace, CAPACITIES, jobs=2,
            events_dir=str(tmp_path), snapshot_interval=500.0,
            progress=lambda p: None,
        )
        assert [p.result.to_json() for p in observed.points] == [
            p.result.to_json() for p in plain.points
        ]

    def test_event_files_written_per_point_and_valid(self, trace, tmp_path):
        sweep = run_capacity_sweep(trace, CAPACITIES, events_dir=str(tmp_path))
        expected = {
            sweep_event_filename(i, p.capacity_label, p.scheme)
            for i, p in enumerate(sweep.points)
        }
        assert {f for f in os.listdir(tmp_path)} == expected
        for name in expected:
            errors, counts = validate_events_file(str(tmp_path / name))
            assert errors == []
            assert counts["request"] == len(trace)

    def test_memoized_points_report_memo_and_write_no_events(self, trace, tmp_path):
        memo = SweepMemoStore(tmp_path / "memo")
        run_capacity_sweep(trace, CAPACITIES, memo=memo)
        ticks = []
        events = tmp_path / "events"
        warm = run_capacity_sweep(
            trace, CAPACITIES, memo=SweepMemoStore(tmp_path / "memo"),
            events_dir=str(events), progress=ticks.append,
        )
        assert warm.telemetry.memo_hits == 4
        assert warm.telemetry.simulated == 0
        assert all(t.report.memoized for t in ticks)
        assert all(t.report.worker_pid is None for t in ticks)
        # No point simulated, so the events directory is never even created.
        assert not events.exists()

    def test_telemetry_none_on_plain_serial_sweep(self, trace):
        sweep = run_capacity_sweep(trace, CAPACITIES)
        assert sweep.telemetry is None

    def test_worker_pids_recorded(self, trace, tmp_path):
        sweep = run_capacity_sweep(
            trace, CAPACITIES, jobs=2, progress=lambda p: None
        )
        pids = set(sweep.telemetry.by_worker())
        assert pids  # at least one worker reported
        assert all(isinstance(pid, int) for pid in pids)


def _report_with(index=0, **extra):
    return TaskReport(
        index=index, capacity_label="64KB", scheme="ea", memoized=False,
        worker_pid=7, wall_time_s=1.0, **extra,
    )


class TestRegimeOccupancy:
    def test_none_without_batch_points(self):
        telemetry = SweepTelemetry(reports=[_report_with()])
        assert telemetry.regime_occupancy() is None
        assert "batch regimes" not in telemetry.summary()

    def test_sums_across_points_and_counts_fallbacks(self):
        telemetry = SweepTelemetry(
            reports=[
                _report_with(0, regimes={"cold": 100, "hit_run": 800, "scalar": 50}),
                _report_with(1, regimes={"cold": 20, "hit_run": 300, "scalar": 10}),
                _report_with(2, regimes={"fallback_reason": "obs attached"}),
                _report_with(3),  # non-batch point: ignored, not a fallback
            ]
        )
        assert telemetry.regime_occupancy() == {
            "cold": 120, "hit_run": 1100, "scalar": 60, "fallbacks": 1
        }
        summary = telemetry.summary()
        assert "batch regimes: cold 120" in summary
        assert "1 fallback point(s)" in summary
        assert "vector regimes off: obs attached" in summary
        assert [r.fastloop_reason for r in telemetry.reports] == [
            None, None, "obs attached", None,
        ]

    def test_peak_memory_is_worker_max(self):
        telemetry = SweepTelemetry(
            reports=[
                _report_with(0, peak_memory_bytes=1_000),
                _report_with(1, peak_memory_bytes=5_000),
                _report_with(2),
            ]
        )
        assert telemetry.peak_memory_bytes == 5_000
        assert "peak worker memory: 5,000 bytes" in telemetry.summary()
        assert SweepTelemetry(reports=[_report_with()]).peak_memory_bytes is None


class TestSweepObservability:
    def test_batch_sweep_reports_per_point_regimes(self, trace):
        sweep = run_capacity_sweep(
            trace, CAPACITIES, engine="batch", progress=lambda p: None
        )
        reports = sweep.telemetry.reports
        assert all(r.regimes is not None for r in reports)
        occupancy = sweep.telemetry.regime_occupancy()
        reason = batch_fastloop_reason(SimulationConfig(engine="batch"))
        if reason is not None:
            # No numpy: every point replayed on the columnar core and says why.
            assert all(r.regimes == {"fallback_reason": reason} for r in reports)
            assert not any(occupancy.get(k) for k in ("cold", "hit_run", "scalar"))
            return
        per_point = len(trace)
        for report in reports:
            assert sum(
                report.regimes.get(k, 0) for k in ("cold", "hit_run", "scalar")
            ) == per_point
        assert occupancy["cold"] + occupancy["hit_run"] + occupancy["scalar"] == (
            per_point * len(reports)
        )

    def test_track_memory_records_worker_peaks(self, trace):
        sweep = run_capacity_sweep(trace, CAPACITIES, jobs=2, track_memory=True)
        assert sweep.telemetry.peak_memory_bytes > 0
        simulated = [r for r in sweep.telemetry.reports if not r.memoized]
        assert all(r.peak_memory_bytes > 0 for r in simulated)

    @pytest.mark.parametrize("already_tracing", [False, True])
    def test_raising_point_leaves_tracemalloc_as_found(
        self, trace, monkeypatch, already_tracing
    ):
        import tracemalloc

        from repro.parallel import runner

        def boom(*args, **kwargs):
            raise RuntimeError("point failed")

        monkeypatch.setattr(runner, "run_simulation", boom)
        assert not tracemalloc.is_tracing()
        if already_tracing:
            tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="point failed"):
                run_capacity_sweep(trace, CAPACITIES, jobs=1, track_memory=True)
            assert tracemalloc.is_tracing() is already_tracing
        finally:
            tracemalloc.stop()

    def test_worker_spans_merge_onto_labeled_lanes(self, trace):
        from repro.obs.spans import SpanTracer, validate_trace_events

        parent = SpanTracer()
        with parent.span("sweep"):
            sweep = run_capacity_sweep(
                trace, CAPACITIES, jobs=2, engine="batch", spans=parent
            )
        assert len(sweep.points) == 4
        # tid 0 is the parent lane; each point gets its own worker lane.
        assert parent.labels == {
            1: "64KB/adhoc", 2: "64KB/ea", 3: "512KB/adhoc", 4: "512KB/ea",
        }
        lanes = {row[4] for row in parent.rows}
        assert lanes == {0, 1, 2, 3, 4}
        assert validate_trace_events(parent.to_chrome()) == []

    def test_observability_args_do_not_perturb_results(self, trace):
        from repro.obs.spans import SpanTracer

        plain = run_capacity_sweep(trace, CAPACITIES, engine="batch")
        observed = run_capacity_sweep(
            trace, CAPACITIES, engine="batch", jobs=2,
            track_memory=True, spans=SpanTracer(),
        )
        assert [p.result.to_json() for p in observed.points] == [
            p.result.to_json() for p in plain.points
        ]
