"""Simulation layer: trace-driven simulator, metrics, results."""

from repro.simulation.replay import replay_trace
from repro.simulation.timeseries import TimeSeriesCollector, WindowPoint
from repro.simulation.metrics import (
    GroupMetrics,
    PlacementDecisionSummary,
    average_cache_expiration_age,
    estimate_average_latency,
    summarize_placement_decisions,
)
from repro.simulation.results import SimulationResult
from repro.simulation.simulator import (
    ARCHITECTURES,
    PARTITIONERS,
    CooperativeSimulator,
    SimulationConfig,
    run_simulation,
)

__all__ = [
    "ARCHITECTURES",
    "CooperativeSimulator",
    "GroupMetrics",
    "PARTITIONERS",
    "PlacementDecisionSummary",
    "SimulationConfig",
    "SimulationResult",
    "TimeSeriesCollector",
    "WindowPoint",
    "average_cache_expiration_age",
    "estimate_average_latency",
    "replay_trace",
    "run_simulation",
    "summarize_placement_decisions",
]
