"""Conservation identities at result level, on all three engines.

Every copy a cache admitted is either still resident or was evicted:

    admissions - evictions         == resident copies
    bytes_admitted - bytes_evicted == resident bytes

per cache, and the copies sum to ``total_copies``. The object core counts
each side independently (``ProxyCache.admit`` / ``evict``), and its caches
can be inspected after the run, so they supply the right-hand sides. The
batch fast loop *derives* evictions and evicted bytes from these
identities (``_post_pass``), which is sound only if they hold wherever
the result is compared — so they are asserted here over the matrix of
``test_batch_differential.py``, and each fast engine's own occupancy (the
last timeseries sample) is checked against its own counters.
"""

from __future__ import annotations

import pytest

from repro.fastpath import simulate_batch, simulate_columnar
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig

from .test_batch_differential import ARCHITECTURES, CAPACITY, POLICIES, SCHEMES


class LastSample:
    """A ``timeseries`` stand-in that keeps the final cumulative reading."""

    def __init__(self) -> None:
        self.row: dict = {}

    def sample(self, **counters) -> None:
        self.row = counters


def assert_conserved(config: SimulationConfig, trace, chunk_size=None) -> None:
    simulator = CooperativeSimulator(config)
    results = {"object": simulator.run(trace)}
    resident = [(len(cache), cache.used_bytes) for cache in simulator.group.caches]
    occupancy = {}
    for name, engine in (("columnar", simulate_columnar), ("batch", simulate_batch)):
        occupancy[name] = LastSample()
        results[name] = engine(
            config, trace, chunk_size=chunk_size, timeseries=occupancy[name]
        )
    for name, result in results.items():
        assert len(result.cache_stats) == len(resident), name
        for cache, (stats, (copies, used)) in enumerate(zip(result.cache_stats, resident)):
            assert stats.admissions - stats.evictions == copies, (name, cache)
            assert stats.bytes_admitted - stats.bytes_evicted == used, (name, cache)
        assert sum(copies for copies, _ in resident) == result.total_copies, name
    for name, sampler in occupancy.items():
        stats = results[name].cache_stats
        held = sum(s.bytes_admitted - s.bytes_evicted for s in stats)
        assert sampler.row["residency_bytes"] == held, name
        assert sampler.row["admissions"] - sampler.row["evictions"] == (
            results[name].total_copies
        ), name


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_full_matrix_on_all_traces(scheme, architecture, policy, all_traces):
    config = SimulationConfig(
        scheme=scheme,
        architecture=architecture,
        policy=policy,
        num_caches=4,
        aggregate_capacity=CAPACITY,
    )
    for _, trace in all_traces:
        assert_conserved(config, trace)


@pytest.mark.parametrize("window_mode", ("cumulative", "count", "time"))
def test_expiration_windows_under_churn(window_mode, churn_trace):
    config = SimulationConfig(
        scheme="ea", num_caches=4, aggregate_capacity=600_000, window_mode=window_mode
    )
    for chunk_size in (None, 13, 499):
        assert_conserved(config, churn_trace, chunk_size)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tie_break", "responder"),
        ("max_replica_fraction", 0.5),
        ("partitioner", "round-robin-request"),
        ("window_size", 16),
        # Smaller than the largest documents: rejections, which admit nothing.
        ("aggregate_capacity", 40_000),
    ],
)
def test_config_variants_with_chunking(field, value, bu_style_trace):
    fields = {"aggregate_capacity": CAPACITY, field: value}
    config = SimulationConfig(scheme="ea", num_caches=4, **fields)
    assert_conserved(config, bu_style_trace)
    assert_conserved(config, bu_style_trace, chunk_size=97)


def test_all_cold_replay(uniform_trace):
    """Nothing is ever evicted: admissions are the copies."""
    config = SimulationConfig(scheme="adhoc", num_caches=4, aggregate_capacity=1 << 33)
    assert_conserved(config, uniform_trace, chunk_size=64)
