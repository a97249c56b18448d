"""Unit tests for every replacement policy."""

from __future__ import annotations

import pytest

from repro.cache.document import CacheEntry, Document
from repro.cache.replacement import (
    FIFOPolicy,
    GDSFPolicy,
    GreedyDualSizePolicy,
    LFUAgingPolicy,
    LFUPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    SizePolicy,
    make_policy,
)
from repro.errors import CacheConfigurationError


def entry(url: str, size: int = 100, t: float = 0.0) -> CacheEntry:
    return CacheEntry(document=Document(url, size), entry_time=t)


def admit_all(policy: ReplacementPolicy, *entries: CacheEntry) -> None:
    for e in entries:
        policy.on_admit(e)


class TestLRU:
    def test_victim_is_least_recent(self):
        policy = LRUPolicy()
        a, b, c = entry("a"), entry("b"), entry("c")
        admit_all(policy, a, b, c)
        assert policy.select_victim() == "a"

    def test_hit_moves_to_tail(self):
        policy = LRUPolicy()
        a, b = entry("a"), entry("b")
        admit_all(policy, a, b)
        policy.on_hit(a)
        assert policy.select_victim() == "b"

    def test_promote_to_head_helper(self):
        policy = LRUPolicy()
        a, b = entry("a"), entry("b")
        admit_all(policy, a, b)
        policy.promote_to_head("a")
        assert policy.select_victim() == "b"

    def test_promote_unknown_is_noop(self):
        policy = LRUPolicy()
        policy.promote_to_head("ghost")  # must not raise

    def test_evict_removes(self):
        policy = LRUPolicy()
        a, b = entry("a"), entry("b")
        admit_all(policy, a, b)
        policy.on_evict(a)
        assert policy.select_victim() == "b"

    def test_empty_select_raises(self):
        with pytest.raises(CacheConfigurationError, match="empty"):
            LRUPolicy().select_victim()

    def test_recency_order(self):
        policy = LRUPolicy()
        a, b, c = entry("a"), entry("b"), entry("c")
        admit_all(policy, a, b, c)
        policy.on_hit(a)
        assert policy.recency_order() == ["b", "c", "a"]

    def test_evicting_from_the_middle_keeps_the_order(self):
        policy = LRUPolicy()
        a, b, c, d = (entry(url) for url in "abcd")
        admit_all(policy, a, b, c, d)
        policy.on_hit(a)
        policy.on_evict(c)
        assert policy.recency_order() == ["b", "d", "a"]
        policy.on_hit(d)
        assert policy.recency_order() == ["b", "a", "d"]
        assert policy.select_victim() == "b"

    def test_clear(self):
        policy = LRUPolicy()
        admit_all(policy, entry("a"))
        policy.clear()
        with pytest.raises(CacheConfigurationError):
            policy.select_victim()

    def test_expiration_age_kind(self):
        assert LRUPolicy().expiration_age_kind == "lru"


class TestFIFO:
    def test_hits_do_not_reorder(self):
        policy = FIFOPolicy()
        a, b = entry("a"), entry("b")
        admit_all(policy, a, b)
        policy.on_hit(a)
        assert policy.select_victim() == "a"

    def test_admission_order(self):
        policy = FIFOPolicy()
        admit_all(policy, entry("x"), entry("y"))
        policy.on_evict(entry("x"))
        assert policy.select_victim() == "y"


class TestLFU:
    def test_victim_is_least_frequent(self):
        policy = LFUPolicy()
        a, b = entry("a"), entry("b")
        admit_all(policy, a, b)
        b.record_hit(1.0)
        policy.on_hit(b)
        assert policy.select_victim() == "a"

    def test_tie_broken_by_insertion(self):
        policy = LFUPolicy()
        a, b = entry("a"), entry("b")
        admit_all(policy, a, b)
        assert policy.select_victim() == "a"

    def test_stale_heap_records_skipped(self):
        policy = LFUPolicy()
        a, b = entry("a"), entry("b")
        admit_all(policy, a, b)
        for t in (1.0, 2.0, 3.0):
            a.record_hit(t)
            policy.on_hit(a)
        assert policy.select_victim() == "b"

    def test_evicted_entry_not_selected(self):
        policy = LFUPolicy()
        a, b = entry("a"), entry("b")
        admit_all(policy, a, b)
        policy.on_evict(a)
        assert policy.select_victim() == "b"

    def test_count_ties_break_by_least_recent_refresh(self):
        policy = LFUPolicy()
        a, b = entry("a"), entry("b")
        admit_all(policy, a, b)
        for refreshed in (b, a):  # both reach 2; b was refreshed first
            refreshed.record_hit(1.0)
            policy.on_hit(refreshed)
        assert policy.select_victim() == "b"

    def test_evicting_a_non_victim_keeps_the_order(self):
        policy = LFUPolicy()
        a, b, c, d = (entry(url) for url in "abcd")
        admit_all(policy, a, b, c, d)
        a.record_hit(1.0)
        policy.on_hit(a)  # a's admission record stays behind, stale
        policy.on_evict(c)
        assert policy.select_victim() == "b"
        policy.on_evict(b)
        assert policy.select_victim() == "d"
        policy.on_admit(entry("c", t=2.0))  # readmitted after d
        assert policy.select_victim() == "d"
        policy.on_evict(d)
        assert policy.select_victim() == "c"

    def test_readmission_starts_a_fresh_count(self):
        policy = LFUPolicy()
        a, b = entry("a"), entry("b")
        admit_all(policy, a, b)
        for t in (1.0, 2.0):
            a.record_hit(t)
            policy.on_hit(a)
        b.record_hit(3.0)
        policy.on_hit(b)
        policy.on_evict(a)  # its count-3 record stays behind
        policy.on_admit(entry("a", t=4.0))
        assert policy.select_victim() == "a"

    def test_empty_after_evicting_everything_raises(self):
        policy = LFUPolicy()
        a = entry("a")
        policy.on_admit(a)
        a.record_hit(1.0)
        policy.on_hit(a)
        policy.on_evict(a)
        with pytest.raises(CacheConfigurationError, match="empty"):
            policy.select_victim()

    def test_expiration_age_kind(self):
        assert LFUPolicy().expiration_age_kind == "lfu"


class TestSize:
    def test_largest_evicted_first(self):
        policy = SizePolicy()
        small, big = entry("small", size=10), entry("big", size=1000)
        admit_all(policy, small, big)
        assert policy.select_victim() == "big"

    def test_hits_irrelevant(self):
        policy = SizePolicy()
        small, big = entry("small", size=10), entry("big", size=1000)
        admit_all(policy, small, big)
        policy.on_hit(big)
        assert policy.select_victim() == "big"


class TestGreedyDualSize:
    def test_small_cost_per_byte_evicted_first(self):
        policy = GreedyDualSizePolicy()
        # H = L + 1/size: the larger document has the lower H.
        a, b = entry("a", size=10), entry("b", size=1000)
        admit_all(policy, a, b)
        assert policy.select_victim() == "b"

    def test_inflation_ages_old_entries(self):
        policy = GreedyDualSizePolicy()
        a = entry("a", size=100)
        policy.on_admit(a)
        victim = policy.select_victim()  # sets L to H(a)
        policy.on_evict(a)
        assert victim == "a"
        # A same-sized newcomer now has H = L + 1/100 > L, so a second
        # newcomer admitted after more inflation survives it.
        b = entry("b", size=100)
        policy.on_admit(b)
        c = entry("c", size=50)
        policy.on_admit(c)
        assert policy.select_victim() == "b"

    def test_invalid_cost(self):
        with pytest.raises(CacheConfigurationError):
            GreedyDualSizePolicy(cost=0.0)


class TestGDSF:
    def test_frequency_raises_priority(self):
        policy = GDSFPolicy()
        a, b = entry("a", size=100), entry("b", size=100)
        admit_all(policy, a, b)
        b.record_hit(1.0)
        policy.on_hit(b)
        assert policy.select_victim() == "a"

    def test_expiration_age_kind(self):
        assert GDSFPolicy().expiration_age_kind == "lfu"


class TestRandom:
    def test_deterministic_with_seed(self):
        entries = [entry(f"u{i}") for i in range(20)]
        picks = []
        for _ in range(2):
            policy = RandomPolicy(seed=7)
            admit_all(policy, *entries)
            picks.append(policy.select_victim())
        assert picks[0] == picks[1]

    def test_victim_is_member(self):
        policy = RandomPolicy(seed=1)
        entries = [entry(f"u{i}") for i in range(5)]
        admit_all(policy, *entries)
        assert policy.select_victim() in {e.url for e in entries}

    def test_swap_removal_keeps_structure_consistent(self):
        policy = RandomPolicy(seed=3)
        entries = [entry(f"u{i}") for i in range(10)]
        admit_all(policy, *entries)
        for e in entries[:9]:
            policy.on_evict(e)
        assert policy.select_victim() == "u9"

    def test_double_evict_is_noop(self):
        policy = RandomPolicy(seed=3)
        a, b = entry("a"), entry("b")
        admit_all(policy, a, b)
        policy.on_evict(a)
        policy.on_evict(a)
        assert policy.select_victim() == "b"


class TestLFUAging:
    def test_counters_halved_when_average_exceeds_limit(self):
        policy = LFUAgingPolicy(max_average_count=2.0)
        a, b = entry("a"), entry("b")
        admit_all(policy, a, b)
        for t in range(1, 6):
            a.record_hit(float(t))
            policy.on_hit(a)
        # a's counter was halved at least once by aging.
        assert a.hit_count < 6

    def test_counters_floor_at_one(self):
        policy = LFUAgingPolicy(max_average_count=1.5)
        a, b = entry("a"), entry("b")
        admit_all(policy, a, b)
        for t in range(1, 20):
            a.record_hit(float(t))
            policy.on_hit(a)
        assert b.hit_count >= 1

    def test_invalid_threshold(self):
        with pytest.raises(CacheConfigurationError):
            LFUAgingPolicy(max_average_count=1.0)


class TestMakePolicy:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("lru", LRUPolicy),
            ("LRU", LRUPolicy),
            ("fifo", FIFOPolicy),
            ("lfu", LFUPolicy),
            ("size", SizePolicy),
            ("gds", GreedyDualSizePolicy),
            ("gdsf", GDSFPolicy),
            ("random", RandomPolicy),
            ("lfu-aging", LFUAgingPolicy),
        ],
    )
    def test_factory(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_kwargs_forwarded(self):
        policy = make_policy("random", seed=42)
        assert isinstance(policy, RandomPolicy)

    def test_unknown_name(self):
        with pytest.raises(CacheConfigurationError, match="unknown replacement policy"):
            make_policy("clock")
