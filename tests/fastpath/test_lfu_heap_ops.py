"""LFU replay does no heap work on a hit.

The columnar core used to push a ``(count, seq, doc)`` record on every
hit, promotion and refresh and drop the stale ones when they surfaced at
an eviction — so at a capacity that never evicts, nothing was ever popped
and a streamed replay's heap grew by one tuple per hit, O(requests)
instead of O(residents). These tests count the ``heapq`` calls where the
replay kernel imports them: pushes are admissions, nothing else.
"""

from __future__ import annotations

import heapq

import pytest

import repro.fastpath.batch as kernel_module
import repro.fastpath.structures as structures_module
from repro.fastpath import simulate_columnar
from repro.simulation.simulator import SimulationConfig
from repro.trace import SyntheticTraceConfig
from repro.trace.stream import SyntheticTraceStream

STREAM = SyntheticTraceConfig(
    num_requests=6_000,
    num_documents=300,
    num_clients=12,
    zipf_alpha=0.8,
    zero_size_fraction=0.02,
    seed=9,
)


@pytest.fixture
def heap_calls(monkeypatch):
    """Counts of heappush / heappop / heapreplace made by the kernel."""
    calls = {"heappush": 0, "heappop": 0, "heapreplace": 0}

    def counted(name, inner):
        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for module in (kernel_module, structures_module):
        for name in calls:
            inner = getattr(heapq, name)
            monkeypatch.setattr(module, name, counted(name, inner))
    return calls


@pytest.mark.parametrize("architecture", ["distributed", "hierarchical"])
@pytest.mark.parametrize("scheme", ["adhoc", "ea"])
def test_fitting_capacity_pushes_admissions_and_pops_nothing(
    heap_calls, scheme, architecture
):
    config = SimulationConfig(
        scheme=scheme,
        architecture=architecture,
        policy="lfu",
        aggregate_capacity=1 << 33,
    )
    result = simulate_columnar(config, SyntheticTraceStream(STREAM), chunk_size=500)
    assert sum(stats.evictions for stats in result.cache_stats) == 0
    assert result.metrics.local_hits > 1_000
    assert heap_calls == {
        "heappush": sum(stats.admissions for stats in result.cache_stats),
        "heappop": 0,
        "heapreplace": 0,
    }


def test_evicting_capacity_pops_one_record_per_eviction(heap_calls):
    config = SimulationConfig(
        scheme="ea", architecture="hierarchical", policy="lfu",
        aggregate_capacity=600_000,
    )
    result = simulate_columnar(config, SyntheticTraceStream(STREAM), chunk_size=500)
    evictions = sum(stats.evictions for stats in result.cache_stats)
    assert evictions > 1_000
    assert heap_calls["heappush"] == sum(s.admissions for s in result.cache_stats)
    assert heap_calls["heappop"] == evictions
    # A re-key happens only when a doc that was hit surfaces as the top.
    assert 0 < heap_calls["heapreplace"] <= result.metrics.local_hits + sum(
        s.remote_hits_served for s in result.cache_stats
    )
