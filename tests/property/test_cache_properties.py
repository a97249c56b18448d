"""Property-based tests for the cache substrate.

Core invariants checked against arbitrary operation sequences:

* a ProxyCache never exceeds its byte capacity;
* used bytes always equals the sum of resident entry sizes;
* LRU evicts exactly the least-recently-used resident entry;
* LFU evicts the least frequently used one, ties to the least recently
  refreshed;
* eviction records carry non-negative, well-formed expiration ages.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.document import Document
from repro.cache.replacement import (
    FIFOPolicy,
    GDSFPolicy,
    GreedyDualSizePolicy,
    LFUPolicy,
    LRUPolicy,
    RandomPolicy,
    SizePolicy,
)
from repro.cache.store import ProxyCache

# An operation is (url_index, size_seed, is_lookup).
operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=400),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)

policy_factories = st.sampled_from(
    [
        LRUPolicy,
        FIFOPolicy,
        LFUPolicy,
        SizePolicy,
        GreedyDualSizePolicy,
        GDSFPolicy,
        lambda: RandomPolicy(seed=0),
    ]
)


def apply_ops(cache: ProxyCache, ops, sizes):
    now = 0.0
    for url_index, _size_seed, is_lookup in ops:
        now += 1.0
        url = f"http://p/{url_index}"
        if is_lookup:
            cache.lookup(url, now)
        elif url not in cache:
            cache.admit(Document(url, sizes[url_index]), now)
        else:
            cache.lookup(url, now)
    return now


@given(ops=operations, policy_factory=policy_factories, capacity=st.integers(500, 3000))
@settings(max_examples=150, deadline=None)
def test_capacity_never_exceeded(ops, policy_factory, capacity):
    sizes = {i: (seed % 400) + 1 for i, (_, seed, _) in enumerate(ops)}
    sizes = {i: sizes.get(i, 100) for i in range(31)}
    cache = ProxyCache(capacity, policy=policy_factory())
    now = 0.0
    for url_index, _seed, is_lookup in ops:
        now += 1.0
        url = f"http://p/{url_index}"
        if is_lookup:
            cache.lookup(url, now)
        else:
            cache.admit(Document(url, sizes[url_index]), now)
        assert cache.used_bytes <= capacity
        resident = sum(cache.get_entry(u).size for u in cache.urls())
        assert resident == cache.used_bytes


@given(ops=operations)
@settings(max_examples=100, deadline=None)
def test_lru_evicts_least_recently_used(ops):
    """Shadow-model check: ProxyCache+LRUPolicy matches a reference list."""
    capacity = 5 * 100  # exactly five 100-byte slots
    cache = ProxyCache(capacity, policy=LRUPolicy())
    reference = []  # least-recent first
    now = 0.0
    for url_index, _seed, is_lookup in ops:
        now += 1.0
        url = f"http://p/{url_index}"
        if url in cache:
            cache.lookup(url, now)
            reference.remove(url)
            reference.append(url)
        elif not is_lookup:
            outcome = cache.admit(Document(url, 100), now)
            for record in outcome.evicted:
                assert record.url == reference.pop(0)
            reference.append(url)
        else:
            cache.lookup(url, now)
        assert set(reference) == set(cache.urls())


@given(ops=operations, policy_factory=policy_factories)
@settings(max_examples=100, deadline=None)
def test_eviction_records_well_formed(ops, policy_factory):
    cache = ProxyCache(800, policy=policy_factory())
    now = 0.0
    for url_index, seed, is_lookup in ops:
        now += 1.0
        url = f"http://p/{url_index}"
        if is_lookup:
            cache.lookup(url, now)
            continue
        outcome = cache.admit(Document(url, (seed % 300) + 1), now)
        for record in outcome.evicted:
            assert record.evict_time == now
            assert record.entry_time <= record.last_hit_time <= record.evict_time
            assert record.hit_count >= 1
            assert record.lru_expiration_age >= 0.0
            assert record.lfu_expiration_age >= 0.0
            assert record.life_time >= record.lru_expiration_age


@given(ops=operations)
@settings(max_examples=100, deadline=None)
def test_stats_counters_consistent(ops):
    cache = ProxyCache(1000)
    now = 0.0
    for url_index, seed, is_lookup in ops:
        now += 1.0
        url = f"http://p/{url_index}"
        if is_lookup:
            cache.lookup(url, now)
        else:
            cache.admit(Document(url, (seed % 300) + 1), now)
    stats = cache.stats
    assert stats.lookups == stats.local_hits + stats.local_misses
    assert stats.admissions - stats.evictions == len(cache)
    assert stats.bytes_admitted - stats.bytes_evicted == cache.used_bytes


@given(ops=operations)
@settings(max_examples=100, deadline=None)
def test_lfu_evicts_least_frequent_then_least_recently_refreshed(ops):
    """Shadow-model check: ProxyCache+LFUPolicy evicts the minimum
    ``(hit count, last refresh)`` of a plain dict, with that hit count."""
    cache = ProxyCache(5 * 100, policy=LFUPolicy())
    keys = {}  # url -> (hit count, step of admission or last hit)
    now = 0.0
    for step, (url_index, _seed, is_lookup) in enumerate(ops):
        now += 1.0
        url = f"http://p/{url_index}"
        if url in cache:
            cache.lookup(url, now)
            keys[url] = (keys[url][0] + 1, step)
        elif not is_lookup:
            outcome = cache.admit(Document(url, 100), now)
            for record in outcome.evicted:
                victim = min(keys, key=keys.__getitem__)
                assert record.url == victim
                assert record.hit_count == keys.pop(victim)[0]
            keys[url] = (1, step)
        else:
            cache.lookup(url, now)
        assert set(keys) == set(cache.urls())
