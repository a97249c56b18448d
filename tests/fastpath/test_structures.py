"""IntrusiveLRUList / LFUVictimHeap vs the object replacement policies.

Each structure is driven through long randomised operation sequences in
lockstep with the OrderedDict/heap policy it ports; victim choices and
full recency orders must match at every step.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.document import CacheEntry, Document
from repro.cache.replacement import LFUPolicy, LRUPolicy
from repro.errors import CacheConfigurationError
from repro.fastpath.structures import IntrusiveLRUList, LFUVictimHeap

NUM_DOCS = 40


def _entry(doc: int, now: float = 0.0) -> CacheEntry:
    return CacheEntry(
        document=Document(url=f"http://doc/{doc}", size=100), entry_time=now
    )


def _doc_of(url: str) -> int:
    return int(url.rsplit("/", 1)[1])


class TestIntrusiveLRUList:
    def test_matches_lru_policy_on_random_ops(self):
        rng = random.Random(7)
        lru = IntrusiveLRUList(NUM_DOCS)
        policy = LRUPolicy()
        entries = {}
        resident = []
        for step in range(3_000):
            op = rng.random()
            if (op < 0.4 or not resident) and len(resident) < NUM_DOCS:
                # admit a non-resident doc
                doc = rng.choice(
                    [d for d in range(NUM_DOCS) if d not in entries]
                )
                entries[doc] = _entry(doc, now=float(step))
                resident.append(doc)
                lru.push(doc)
                policy.on_admit(entries[doc])
            elif op < 0.8:
                doc = rng.choice(resident)
                lru.touch(doc)
                policy.on_hit(entries[doc])
            else:
                # evict the victim both structures agree on
                victim_url = policy.select_victim()
                assert lru.head() == _doc_of(victim_url)
                doc = lru.head()
                lru.remove(doc)
                policy.on_evict(entries.pop(doc))
                resident.remove(doc)
            if resident:
                assert lru.head() == _doc_of(policy.select_victim())
        assert lru.order() == [_doc_of(u) for u in policy.recency_order()]

    def test_empty_head_raises(self):
        lru = IntrusiveLRUList(4)
        with pytest.raises(CacheConfigurationError):
            lru.head()

    def test_push_touch_remove_order(self):
        lru = IntrusiveLRUList(5)
        for doc in (0, 1, 2, 3):
            lru.push(doc)
        lru.touch(0)  # 1 2 3 0
        assert lru.order() == [1, 2, 3, 0]
        lru.remove(2)  # 1 3 0
        assert lru.order() == [1, 3, 0]
        assert lru.head() == 1
        lru.touch(3)
        assert lru.order() == [1, 0, 3]

    def test_single_doc(self):
        lru = IntrusiveLRUList(1)
        lru.push(0)
        assert lru.head() == 0
        lru.touch(0)
        assert lru.order() == [0]
        lru.remove(0)
        assert lru.order() == []


class TestLFUVictimHeap:
    def test_matches_lfu_policy_on_random_ops(self):
        rng = random.Random(11)
        heap = LFUVictimHeap(NUM_DOCS)
        policy = LFUPolicy()
        entries = {}
        resident = []
        for step in range(3_000):
            op = rng.random()
            if (op < 0.4 or not resident) and len(resident) < NUM_DOCS:
                doc = rng.choice(
                    [d for d in range(NUM_DOCS) if d not in entries]
                )
                entries[doc] = _entry(doc, now=float(step))
                resident.append(doc)
                heap.push(doc, entries[doc].hit_count)
                policy.on_admit(entries[doc])
            elif op < 0.8:
                doc = rng.choice(resident)
                entries[doc].record_hit(float(step))
                heap.push(doc, entries[doc].hit_count)
                policy.on_hit(entries[doc])
            else:
                victim_url = policy.select_victim()
                assert heap.victim() == _doc_of(victim_url)
                doc = heap.victim()
                heap.remove(doc)
                policy.on_evict(entries.pop(doc))
                resident.remove(doc)
            if resident:
                assert heap.victim() == _doc_of(policy.select_victim())

    def test_ties_broken_by_oldest_push(self):
        heap = LFUVictimHeap(3)
        heap.push(2, 1)
        heap.push(0, 1)
        heap.push(1, 1)
        assert heap.victim() == 2  # first push wins the count tie
        heap.push(2, 2)  # refresh: 2 now has count 2 and a newer seq
        assert heap.victim() == 0

    def test_stale_records_skipped_after_remove(self):
        heap = LFUVictimHeap(3)
        heap.push(0, 1)
        heap.push(1, 5)
        heap.remove(0)
        assert heap.victim() == 1

    def test_empty_heap_raises(self):
        heap = LFUVictimHeap(2)
        with pytest.raises(CacheConfigurationError, match="no live records"):
            heap.victim()
        heap.push(0, 1)
        heap.remove(0)
        with pytest.raises(CacheConfigurationError, match="no live records"):
            heap.victim()


class TestLFUVictimHeapFootprint:
    """One heap record per resident doc, however many hits it takes."""

    def test_hits_do_not_grow_the_heap(self):
        rng = random.Random(5)
        heap = LFUVictimHeap(50)
        policy = LFUPolicy()
        entries = {doc: _entry(doc, now=0.0) for doc in range(50)}
        for doc, entry in entries.items():
            heap.push(doc, entry.hit_count)
            policy.on_admit(entry)
        for step in range(10_000):
            doc = rng.randrange(50)
            entries[doc].record_hit(float(step))
            heap.push(doc, entries[doc].hit_count)
            policy.on_hit(entries[doc])
        assert len(heap) == 50
        # ... and the records left behind still yield the policy's order.
        for remaining in range(50, 0, -1):
            assert len(heap) == remaining
            victim = heap.victim()
            assert victim == _doc_of(policy.select_victim())
            heap.remove(victim)
            policy.on_evict(entries.pop(victim))

    def test_removing_a_doc_that_is_not_the_victim(self):
        heap = LFUVictimHeap(4)
        for doc in range(4):
            heap.push(doc, 1)
        heap.push(0, 2)  # stale record for 0 stays on top
        heap.remove(2)
        assert len(heap) == 3
        assert heap.victim() == 1
        heap.remove(1)
        assert heap.victim() == 3
        heap.push(2, 1)  # re-admission starts a fresh record
        assert len(heap) == 3
        assert heap.victim() == 3
        heap.remove(3)
        assert heap.victim() == 2
