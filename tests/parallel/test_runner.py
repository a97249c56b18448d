"""Parallel sweeps must be byte-identical to serial ones — the whole deal."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.errors import ExperimentError
from repro.experiments import fig1_document_hit_rates
from repro.experiments.sweep import run_capacity_sweep
from repro.parallel import ParallelSweepRunner, SweepMemoStore, default_jobs
from repro.simulation.simulator import SimulationConfig
from repro.trace.synthetic import SyntheticTraceConfig, generate_trace

CAPACITIES = [("64KB", 64 * 1024), ("512KB", 512 * 1024)]


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        SyntheticTraceConfig(num_requests=1500, num_documents=200, num_clients=8, seed=11)
    )


def point_dicts(sweep):
    return [
        (p.scheme, p.capacity_label, p.capacity_bytes, p.result.to_json())
        for p in sweep.points
    ]


class TestByteIdenticalMerge:
    @pytest.mark.parametrize("architecture", ["distributed", "hierarchical"])
    def test_jobs4_matches_serial_both_architectures(self, trace, architecture):
        base = SimulationConfig(architecture=architecture, seed=5)
        serial = run_capacity_sweep(trace, CAPACITIES, base_config=base)
        parallel = run_capacity_sweep(trace, CAPACITIES, base_config=base, jobs=4)
        assert point_dicts(parallel) == point_dicts(serial)

    def test_jobs4_matches_serial_with_sanitizer(self, trace):
        base = SimulationConfig(sanitize=True, seed=5)
        serial = run_capacity_sweep(trace, CAPACITIES, base_config=base)
        parallel = run_capacity_sweep(trace, CAPACITIES, base_config=base, jobs=4)
        assert point_dicts(parallel) == point_dicts(serial)

    def test_point_order_capacity_outer_scheme_inner(self, trace):
        parallel = run_capacity_sweep(trace, CAPACITIES, jobs=4)
        assert [(p.capacity_label, p.scheme) for p in parallel.points] == [
            ("64KB", "adhoc"), ("64KB", "ea"), ("512KB", "adhoc"), ("512KB", "ea"),
        ]

    def test_driver_report_renders_identically(self, trace):
        serial = fig1_document_hit_rates.run(trace=trace, capacities=CAPACITIES)
        parallel = fig1_document_hit_rates.run(
            trace=trace, capacities=CAPACITIES, jobs=4
        )
        assert parallel.render() == serial.render()
        assert parallel.to_json() == serial.to_json()

    def test_jobs1_runs_in_process(self, trace):
        serial = run_capacity_sweep(trace, CAPACITIES)
        in_process = run_capacity_sweep(trace, CAPACITIES, jobs=1)
        assert point_dicts(in_process) == point_dicts(serial)


class TestInProcessSweepReleasesTrace:
    """An in-process sweep pins the trace in the caller's process for its
    tasks; once it returns, nothing may keep the trace alive."""

    @pytest.mark.parametrize(
        "kwargs", [{}, {"jobs": 1}, {"memo": True}], ids=["serial", "jobs1", "memo"]
    )
    def test_trace_is_collectable_after_sweep(self, tmp_path, kwargs):
        trace = generate_trace(
            SyntheticTraceConfig(num_requests=300, num_documents=50, num_clients=4, seed=3)
        )
        if kwargs.get("memo"):
            kwargs = {"memo": SweepMemoStore(tmp_path)}
        run_capacity_sweep(trace, CAPACITIES[:1], **kwargs)
        ref = weakref.ref(trace)
        del trace
        gc.collect()
        assert ref() is None


class TestValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(ExperimentError):
            ParallelSweepRunner(jobs=0)

    def test_empty_capacities_rejected(self, trace):
        with pytest.raises(ExperimentError):
            run_capacity_sweep(trace, [], jobs=2)

    def test_empty_schemes_rejected(self, trace):
        with pytest.raises(ExperimentError):
            run_capacity_sweep(trace, CAPACITIES, schemes=(), jobs=2)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestMemoIntegration:
    def test_warm_memo_skips_simulation_entirely(self, trace, tmp_path, monkeypatch):
        memo = SweepMemoStore(tmp_path)
        first = run_capacity_sweep(trace, CAPACITIES, jobs=2, memo=memo)
        assert memo.misses == len(CAPACITIES) * 2
        # A warm memo must never reach the simulator again.
        import repro.parallel.runner as runner_mod

        def boom(config, trace):
            raise AssertionError("memo-warm run re-simulated a point")

        monkeypatch.setattr(runner_mod, "run_simulation", boom)
        cold_store = SweepMemoStore(tmp_path)  # fresh hot cache, same disk
        second = run_capacity_sweep(trace, CAPACITIES, jobs=2, memo=cold_store)
        assert cold_store.hits == len(CAPACITIES) * 2
        assert cold_store.misses == 0
        assert point_dicts(second) == point_dicts(first)

    def test_partial_memo_simulates_only_missing_points(self, trace, tmp_path):
        memo = SweepMemoStore(tmp_path)
        run_capacity_sweep(trace, CAPACITIES[:1], jobs=2, memo=memo)
        fresh = SweepMemoStore(tmp_path)
        full = run_capacity_sweep(trace, CAPACITIES, jobs=2, memo=fresh)
        assert fresh.hits == 2 and fresh.misses == 2
        assert len(full.points) == 4

    def test_memoized_results_identical_to_serial(self, trace, tmp_path):
        serial = run_capacity_sweep(trace, CAPACITIES)
        memo = SweepMemoStore(tmp_path)
        run_capacity_sweep(trace, CAPACITIES, memo=memo)
        replayed = run_capacity_sweep(trace, CAPACITIES, memo=SweepMemoStore(tmp_path))
        assert point_dicts(replayed) == point_dicts(serial)
