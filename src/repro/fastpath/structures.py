"""Array-backed victim-order structures over dense doc ids.

These mirror the object policies' victim semantics exactly —
:class:`IntrusiveLRUList` reproduces :class:`repro.cache.replacement.LRUPolicy`
(an ``OrderedDict`` by recency) and :class:`LFUVictimHeap` reproduces
:class:`repro.cache.replacement.LFUPolicy` (a min-heap keyed on
``(hit_count, push_seq)``, re-keyed at the victim search instead of
re-pushed on every hit) — but are indexed by integer doc id, never
hashing a string or allocating per request. They are the references the
replay kernel (:func:`repro.fastpath.batch.replay`) is tested against:
its LRU is an ``OrderedDict`` of slots per cache, checked against
:class:`IntrusiveLRUList` operation by operation, and its LFU runs
:class:`LFUVictimHeap`'s protocol inline on flat per-slot columns.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Iterator, List, Tuple

from repro.errors import CacheConfigurationError


class IntrusiveLRUList:
    """Doubly-linked recency list stored as two parallel ``prev``/``next``
    arrays indexed by doc id, with a sentinel node at index ``num_docs``.

    ``next[sentinel]`` is the least-recently-used doc (the LRU victim);
    ``prev[sentinel]`` is the most-recently-used. Every operation is O(1)
    and allocation-free. Doc ids must be resident (pushed, not removed)
    when touched — exactly the contract :class:`ProxyCache` gives its
    policy.
    """

    __slots__ = ("prev", "next", "sentinel")

    def __init__(self, num_docs: int):
        sentinel = num_docs
        self.sentinel = sentinel
        self.prev: List[int] = [-1] * (num_docs + 1)
        self.next: List[int] = [-1] * (num_docs + 1)
        self.prev[sentinel] = sentinel
        self.next[sentinel] = sentinel

    def grow(self, num_docs: int) -> None:
        """Extend capacity to ``num_docs`` docs (streamed-chunk intern delta).

        The sentinel relocates from the old array tail to the new one; its
        two neighbours (the current LRU head and MRU tail) are relinked in
        O(1), the vacated slot becomes an ordinary (unlinked) doc slot, and
        every existing link is otherwise untouched — recency order is
        exactly preserved.
        """
        old_sentinel = self.sentinel
        add = num_docs - old_sentinel
        if add <= 0:
            return
        prev, nxt = self.prev, self.next
        prev.extend([-1] * add)
        nxt.extend([-1] * add)
        sentinel = num_docs
        head, tail = nxt[old_sentinel], prev[old_sentinel]
        if head == old_sentinel:  # empty list: sentinel self-loops
            prev[sentinel] = sentinel
            nxt[sentinel] = sentinel
        else:
            nxt[sentinel] = head
            prev[sentinel] = tail
            prev[head] = sentinel
            nxt[tail] = sentinel
        prev[old_sentinel] = -1
        nxt[old_sentinel] = -1
        self.sentinel = sentinel

    def push(self, doc: int) -> None:
        """Insert ``doc`` at the most-recently-used end (admission)."""
        prev, nxt, sentinel = self.prev, self.next, self.sentinel
        tail = prev[sentinel]
        nxt[tail] = doc
        prev[doc] = tail
        nxt[doc] = sentinel
        prev[sentinel] = doc

    def touch(self, doc: int) -> None:
        """Move resident ``doc`` to the most-recently-used end (a hit)."""
        prev, nxt = self.prev, self.next
        before, after = prev[doc], nxt[doc]
        nxt[before] = after
        prev[after] = before
        sentinel = self.sentinel
        tail = prev[sentinel]
        nxt[tail] = doc
        prev[doc] = tail
        nxt[doc] = sentinel
        prev[sentinel] = doc

    def remove(self, doc: int) -> None:
        """Unlink resident ``doc`` (eviction)."""
        prev, nxt = self.prev, self.next
        before, after = prev[doc], nxt[doc]
        nxt[before] = after
        prev[after] = before

    def head(self) -> int:
        """The LRU victim. Raises on an empty list (mirrors the policies)."""
        victim = self.next[self.sentinel]
        if victim == self.sentinel:
            raise CacheConfigurationError(
                "IntrusiveLRUList.head called on an empty list"
            )
        return victim

    def __iter__(self) -> Iterator[int]:
        """Docs from least- to most-recently used (tests/inspection)."""
        node = self.next[self.sentinel]
        while node != self.sentinel:
            yield node
            node = self.next[node]

    def order(self) -> List[int]:
        """Recency order as a list, LRU victim first."""
        return list(self)


class LFUVictimHeap:
    """Min-heap of ``(hit_count, seq, doc)`` holding one record per resident doc.

    Identical victim order to :class:`repro.cache.replacement.LFUPolicy`:
    lowest hit count wins, ties broken by the oldest push (least recent
    refresh). The object policy pushes a fresh record on every hit and
    skips the stale ones when it pops; here a hit only advances the doc's
    *live* ``(count, seq)`` — the sequence counter ticks at exactly the
    pushes the policy's does, since it breaks the ties — and the record
    stays where it is. Counts and sequences only ever rise, so a record's
    key is a lower bound on its doc's live key: :meth:`victim` re-keys a
    stale top in place and stops at the first current record, which
    therefore carries the lowest live key. The heap never outgrows the
    resident set, whatever the hit count.

    ``heap``, ``live_count``, ``live_seq`` and ``seq`` are public the way
    :class:`IntrusiveLRUList`'s arrays are. The replay kernel
    (:func:`repro.fastpath.batch.replay`) runs this protocol inline on
    flat per-slot columns — a heap and a sequence per cache, the live
    count being its hit-count column — and the tests hold it to this
    class. The lists are only ever mutated in place, so a binding stays
    valid across :meth:`grow`.
    """

    __slots__ = ("heap", "live_count", "live_seq", "seq")

    def __init__(self, num_docs: int):
        self.heap: List[Tuple[int, int, int]] = []
        self.live_count: List[int] = [0] * num_docs
        self.live_seq: List[int] = [-1] * num_docs  # -1: not resident
        self.seq = 0

    def __len__(self) -> int:
        """Heap records held — one per resident doc."""
        return len(self.heap)

    def grow(self, num_docs: int) -> None:
        """Extend capacity to ``num_docs`` docs (streamed-chunk intern delta)."""
        add = num_docs - len(self.live_seq)
        if add > 0:
            self.live_count.extend([0] * add)
            self.live_seq.extend([-1] * add)

    def push(self, doc: int, count: int) -> None:
        """Admit ``doc``, or advance a resident doc's live key (a hit)."""
        seq = self.seq + 1
        self.seq = seq
        live_seq = self.live_seq
        admission = live_seq[doc] < 0
        live_seq[doc] = seq
        self.live_count[doc] = count
        if admission:
            heappush(self.heap, (count, seq, doc))

    def remove(self, doc: int) -> None:
        """Drop ``doc``'s record (eviction).

        One pop for the doc :meth:`victim` just returned — the only
        removal the engine performs; any other doc costs a rebuild.
        """
        self.live_seq[doc] = -1
        heap = self.heap
        if heap and heap[0][2] == doc:
            heappop(heap)
        else:
            heap[:] = [record for record in heap if record[2] != doc]
            heapify(heap)

    def victim(self) -> int:
        """The resident doc with the lowest live ``(hit_count, seq)``."""
        heap = self.heap
        if not heap:
            raise CacheConfigurationError("heap policy state corrupted: no live records")
        live_seq = self.live_seq
        while True:
            _count, seq, doc = heap[0]
            live = live_seq[doc]
            if live == seq:
                return doc
            heapreplace(heap, (self.live_count[doc], live, doc))  # stale key
