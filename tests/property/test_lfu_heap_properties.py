"""``LFUVictimHeap`` against ``LFUPolicy`` over generated operation sequences.

The policy pushes a heap record on every hit and skips the stale ones at
the victim search; the columnar structure keeps one record per resident
doc, advances only the doc's live ``(count, seq)`` on a hit and re-keys a
stale top in place. Both must name the same victim after every step of
any admit / hit / evict / re-admit / grow sequence, and the structure's
heap must hold exactly the resident set. Two mutations this is written to
catch: a hit that does not advance the sequence counter (count ties then
break by admission order instead of last refresh), and a stale top that
is popped instead of re-keyed (the doc leaves the heap while resident).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.document import CacheEntry, Document
from repro.cache.replacement import LFUPolicy
from repro.errors import CacheConfigurationError
from repro.fastpath.structures import LFUVictimHeap

ADMIT, HIT, EVICT_VICTIM, READMIT_VICTIM, EVICT_ANY, GROW = range(6)

#: (operation, pick): ``pick`` selects the doc among the candidates the
#: operation has at that point. Hits are weighted up so counts tie and
#: stale records pile under the top.
steps = st.lists(
    st.tuples(
        st.sampled_from(
            [ADMIT, ADMIT, HIT, HIT, HIT, EVICT_VICTIM, READMIT_VICTIM, EVICT_ANY, GROW]
        ),
        st.integers(0, 1_000),
    ),
    min_size=1,
    max_size=200,
)


def _url(doc: int) -> str:
    return f"http://doc/{doc}"


class Lockstep:
    """The structure and the policy it ports, driven by the same events."""

    def __init__(self, num_docs: int):
        self.num_docs = num_docs
        self.heap = LFUVictimHeap(num_docs)
        self.policy = LFUPolicy()
        self.entries: dict = {}
        self.clock = 0.0

    def admit(self, doc: int) -> None:
        entry = CacheEntry(document=Document(url=_url(doc), size=100), entry_time=self.clock)
        self.entries[doc] = entry
        self.heap.push(doc, entry.hit_count)
        self.policy.on_admit(entry)

    def hit(self, doc: int) -> None:
        entry = self.entries[doc]
        entry.record_hit(self.clock)
        self.heap.push(doc, entry.hit_count)
        self.policy.on_hit(entry)

    def evict(self, doc: int) -> None:
        self.heap.remove(doc)
        self.policy.on_evict(self.entries.pop(doc))

    def grow(self, add: int) -> None:
        self.num_docs += add
        self.heap.grow(self.num_docs)

    def check(self) -> None:
        assert len(self.heap) == len(self.entries)
        if self.entries:
            assert _url(self.heap.victim()) == self.policy.select_victim()
        else:
            with pytest.raises(CacheConfigurationError):
                self.heap.victim()
            with pytest.raises(CacheConfigurationError):
                self.policy.select_victim()


@given(steps=steps, num_docs=st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_same_victim_and_one_record_per_resident(steps, num_docs):
    pair = Lockstep(num_docs)
    pair.check()
    for op, pick in steps:
        pair.clock += 1.0
        resident = sorted(pair.entries)
        absent = [d for d in range(pair.num_docs) if d not in pair.entries]
        if op == ADMIT and absent:
            pair.admit(absent[pick % len(absent)])
        elif op == HIT and resident:
            pair.hit(resident[pick % len(resident)])
        elif op == EVICT_VICTIM and resident:
            pair.evict(pair.heap.victim())
        elif op == READMIT_VICTIM and resident:
            victim = pair.heap.victim()
            pair.evict(victim)
            pair.check()
            pair.admit(victim)
        elif op == EVICT_ANY and resident:
            pair.evict(resident[pick % len(resident)])
        elif op == GROW:
            pair.grow(1 + pick % 3)
        pair.check()
