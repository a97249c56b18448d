"""Unit tests for CooperativeGroup shared machinery."""

from __future__ import annotations

import math

import pytest

from repro.architecture.base import CooperativeGroup, build_caches
from repro.architecture.distributed import DistributedGroup
from repro.architecture.hashrouted import HashRoutedGroup
from repro.architecture.hierarchical import HierarchicalGroup
from repro.cache.document import Document
from repro.core.placement import AdHocScheme
from repro.digest.group import DigestDistributedGroup
from repro.errors import SimulationError
from repro.network.topology import StarTopology, two_level_tree
from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace.record import Trace, TraceRecord


def make_group(num_caches=3, capacity=3000):
    return DistributedGroup(build_caches(num_caches, capacity), AdHocScheme())


class TestBuildCaches:
    def test_equal_share(self):
        caches = build_caches(4, 1000)
        assert all(c.capacity_bytes == 250 for c in caches)

    def test_names_indexed(self):
        caches = build_caches(3, 300)
        assert [c.name for c in caches] == ["cache0", "cache1", "cache2"]

    def test_policy_name_forwarded(self):
        from repro.cache.replacement import LFUPolicy

        caches = build_caches(2, 200, policy_name="lfu")
        assert all(isinstance(c.policy, LFUPolicy) for c in caches)
        assert all(c.tracker.kind == "lfu" for c in caches)

    def test_window_settings_forwarded(self):
        caches = build_caches(2, 200, window_mode="cumulative")
        assert all(c.tracker.window_mode == "cumulative" for c in caches)

    def test_rejects_zero_caches(self):
        with pytest.raises(SimulationError):
            build_caches(0, 100)

    def test_rejects_capacity_smaller_than_group(self):
        with pytest.raises(SimulationError, match="too small"):
            build_caches(10, 5)


@pytest.mark.parametrize("engine", ["object", "columnar", "batch"])
def test_every_core_refuses_a_too_small_capacity_alike(engine):
    """The object core's build_caches and the kernel's frame split through
    one helper, so 3 bytes over 4 caches fails the same way on each."""
    config = SimulationConfig(num_caches=4, aggregate_capacity=3, engine=engine)
    trace = Trace([TraceRecord(1.0, "c", "http://x/a", 100)])
    with pytest.raises(SimulationError) as refused:
        run_simulation(config, trace)
    assert str(refused.value) == (
        "aggregate capacity 3 too small for 4 caches with shares [1.0, 1.0, 1.0, 1.0]"
    )


#: Builders of every group constructor and build_caches, by name.
BUILDERS = {
    "DistributedGroup": lambda **kw: DistributedGroup(build_caches(2, 200), AdHocScheme(), **kw),
    "HierarchicalGroup": lambda **kw: HierarchicalGroup(
        build_caches(3, 300), AdHocScheme(), two_level_tree(2, 1), **kw
    ),
    "HashRoutedGroup": lambda **kw: HashRoutedGroup(build_caches(2, 200), **kw),
    "DigestDistributedGroup": lambda **kw: DigestDistributedGroup(
        build_caches(2, 200), AdHocScheme(), **kw
    ),
    "build_caches": lambda **kw: build_caches(2, 200, **kw),
}

#: The knobs no entry point set: the paper's latency constants, a fresh
#: bus and the lowest-index responder are the only behaviour left.
RETIRED = [
    (built, keyword)
    for built, keywords in (
        ("DistributedGroup", ("latency_model", "bus", "responder_strategy")),
        ("HierarchicalGroup", ("latency_model", "bus", "responder_strategy")),
        ("HashRoutedGroup", ("latency_model", "bus")),
        ("DigestDistributedGroup", ("latency_model", "bus", "responder_strategy")),
        ("build_caches", ("policy_kwargs",)),
    )
    for keyword in keywords
]


class TestGroupConstruction:
    def test_cache_count_must_match_topology(self):
        caches = build_caches(2, 200)
        with pytest.raises(SimulationError):
            CooperativeGroup(caches, AdHocScheme(), StarTopology(3))

    @pytest.mark.parametrize("built,keyword", RETIRED)
    def test_retired_keywords_rejected(self, built, keyword):
        BUILDERS[built]()
        with pytest.raises(TypeError):
            BUILDERS[built](**{keyword: None})


class TestIcpProbe:
    def test_probe_counts_messages_and_finds_holders(self):
        group = make_group()
        group.caches[1].admit(Document("http://x/a", 10), 0.0)
        holders = group._icp_probe(0, [1, 2], "http://x/a")
        assert holders == [1]
        assert group.bus.counters.icp_queries == 2
        assert group.bus.counters.icp_replies == 2

    def test_probe_no_holders(self):
        group = make_group()
        assert group._icp_probe(0, [1, 2], "http://ghost") == []


class TestChooseResponder:
    def test_lowest_index_serves(self):
        assert make_group()._choose_responder([2, 1]) == 1

    def test_empty_holders_raise(self):
        with pytest.raises(SimulationError):
            make_group()._choose_responder([])


class TestGroupIntrospection:
    def test_unique_documents_and_copies(self):
        group = make_group()
        group.caches[0].admit(Document("http://x/a", 10), 0.0)
        group.caches[1].admit(Document("http://x/a", 10), 0.0)
        group.caches[1].admit(Document("http://x/b", 10), 0.0)
        assert group.unique_documents() == 2
        assert group.total_copies() == 3
        assert group.replication_factor() == pytest.approx(1.5)

    def test_replication_factor_empty_group(self):
        assert make_group().replication_factor() == 0.0

    def test_expiration_ages_vector(self):
        group = make_group()
        ages = group.expiration_ages()
        assert len(ages) == 3
        assert all(math.isinf(a) for a in ages)
