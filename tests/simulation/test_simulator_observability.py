"""Tests for the simulator's warm-up exclusion."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig
from repro.trace.synthetic import SyntheticTraceConfig, generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        SyntheticTraceConfig(
            num_requests=2000, num_documents=250, num_clients=8,
            mean_interarrival=2.0, seed=55,
        )
    )


class TestWarmupExclusion:
    def test_metrics_skip_warmup_requests(self, trace):
        sim = CooperativeSimulator(
            SimulationConfig(aggregate_capacity=1 << 18, warmup_requests=500)
        )
        result = sim.run(trace)
        assert result.metrics.requests == len(trace) - 500

    def test_warmup_improves_measured_hit_rate(self, trace):
        cold = CooperativeSimulator(
            SimulationConfig(aggregate_capacity=1 << 20)
        ).run(trace)
        warm = CooperativeSimulator(
            SimulationConfig(aggregate_capacity=1 << 20, warmup_requests=800)
        ).run(trace)
        # Steady-state measurement excludes the cold-cache compulsory-miss
        # burst, so the measured hit rate rises.
        assert warm.metrics.hit_rate > cold.metrics.hit_rate

    def test_warmup_larger_than_trace_measures_nothing(self, trace):
        sim = CooperativeSimulator(
            SimulationConfig(aggregate_capacity=1 << 18, warmup_requests=10**6)
        )
        result = sim.run(trace)
        assert result.metrics.requests == 0

    def test_negative_warmup_rejected(self):
        with pytest.raises(SimulationError):
            SimulationConfig(warmup_requests=-1)
