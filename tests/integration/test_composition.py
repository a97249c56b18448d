"""Composition tests: the substrates must stack cleanly.

Each test combines two or more layers (digest location, coherence wrapper,
demotion, prefetch engine, time-series collection, latency histogram) on a real
workload and checks the composed system still conserves accounting — the
classic failure mode of layered wrappers.
"""

from __future__ import annotations

import pytest

from repro.architecture.base import build_caches
from repro.architecture.distributed import DistributedGroup
from repro.architecture.hierarchical import HierarchicalGroup
from repro.coherence.group import CoherentGroup
from repro.coherence.model import ChangeModel, TTLModel
from repro.core.demotion import DemotionGroup
from repro.core.placement import EAScheme
from repro.digest.group import DigestDistributedGroup
from repro.network.topology import two_level_tree
from repro.prefetch.engine import PrefetchEngine
from repro.obs.registry import Histogram
from repro.simulation.metrics import GroupMetrics
from repro.simulation.replay import replay_trace
from repro.simulation.timeseries import TimeSeriesCollector
from repro.trace.partition import HashPartitioner
from repro.trace.record import patch_zero_sizes
from repro.trace.synthetic import SyntheticTraceConfig, generate_trace


@pytest.fixture(scope="module")
def workload():
    return generate_trace(
        SyntheticTraceConfig(
            num_requests=3000, num_documents=400, num_clients=12,
            mean_interarrival=2.0, zero_size_fraction=0.02, seed=99,
        )
    )


def assert_balanced(metrics, n):
    assert metrics.requests == n
    assert metrics.local_hits + metrics.remote_hits + metrics.misses == n
    assert 0.0 <= metrics.hit_rate <= 1.0


class TestCoherentDigest:
    def test_coherence_over_digest_location(self, workload):
        group = DigestDistributedGroup(
            build_caches(3, 300_000), EAScheme(), rebuild_interval=30.0
        )
        coherent = CoherentGroup(
            group,
            ttl_model=TTLModel(base_ttl=600.0),
            change_model=ChangeModel(mean_change_interval=3000.0),
        )
        metrics = replay_trace(coherent, workload)
        assert_balanced(metrics, len(workload))
        # Digest location really engaged (no ICP) and coherence really
        # engaged (validations happened).
        assert group.bus.counters.icp_queries == 0
        assert coherent.stats.validations + coherent.stats.fresh_hits > 0


class TestDemotionHierarchy:
    def test_demotion_over_hierarchical_group(self, workload):
        topology = two_level_tree(num_leaves=3, num_parents=1)
        group = HierarchicalGroup(
            build_caches(topology.num_caches, 200_000), EAScheme(), topology
        )
        demotion = DemotionGroup(group, min_hits=2)
        metrics = replay_trace(demotion, workload)
        assert_balanced(metrics, len(workload))
        assert demotion.stats.candidates > 0


class TestPrefetchDigest:
    def test_prefetch_over_digest_group(self, workload):
        group = DigestDistributedGroup(
            build_caches(3, 300_000), EAScheme(), rebuild_interval=30.0
        )
        engine = PrefetchEngine(group)
        metrics = replay_trace(engine, workload)
        assert_balanced(metrics, len(workload))
        # Prefetch activity occurred on a locality-heavy workload.
        assert engine.stats.issued + engine.stats.skipped_resident > 0


class TestObservabilityStack:
    def test_timeseries_histogram_and_outcome_log_together(self, workload):
        group = DistributedGroup(build_caches(4, 300_000), EAScheme())
        collector = TimeSeriesCollector(window_seconds=workload.duration / 8)
        latency_ms = Histogram("request.latency_ms")
        outcomes = []
        partitioner = HashPartitioner(4)
        for index, record in partitioner.split(patch_zero_sizes(iter(workload))):
            outcome = group.process(index, record)
            collector.observe(outcome)
            latency_ms.observe(outcome.latency * 1000.0)
            outcomes.append(outcome)

        assert latency_ms.count == len(workload)
        assert sum(w.metrics.requests for w in collector.windows) == len(workload)
        # p99 is miss-dominated (2784 ms >> mean) while the median is a hit.
        assert latency_ms.quantile(0.99) > latency_ms.quantile(0.5)
        assert len(outcomes) == len(workload)
        assert [o.timestamp for o in outcomes] == sorted(o.timestamp for o in outcomes)

    def test_histogram_matches_metrics_mean(self, workload):
        group = DistributedGroup(build_caches(4, 300_000), EAScheme())
        latency_ms = Histogram("request.latency_ms")
        metrics = GroupMetrics()
        partitioner = HashPartitioner(4)
        for index, record in partitioner.split(patch_zero_sizes(iter(workload))):
            outcome = group.process(index, record)
            latency_ms.observe(outcome.latency * 1000.0)
            metrics.observe(outcome)
        assert latency_ms.mean == pytest.approx(metrics.mean_measured_latency * 1000.0)
