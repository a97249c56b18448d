"""Cache replacement policies.

Every policy maintains its own victim-selection structure over the entries a
:class:`~repro.cache.store.ProxyCache` holds, exposed through four hooks:

* :meth:`ReplacementPolicy.on_admit` — a new entry entered the cache.
* :meth:`ReplacementPolicy.on_hit` — an entry received a *refreshing* hit
  (the EA scheme suppresses this call on a responder serving a remote hit
  when its expiration age is not greater than the requester's).
* :meth:`ReplacementPolicy.select_victim` — choose the next eviction victim.
* :meth:`ReplacementPolicy.on_evict` — the entry left the cache.

The paper evaluates LRU and defines the LFU expiration-age formula; the
remaining policies (FIFO, SIZE, GreedyDual-Size, GDSF, Random, LFU-Aging)
are provided because the paper claims the EA scheme "works well with various
document replacement algorithms" — the ablation benchmarks exercise that
claim.
"""

from __future__ import annotations

import heapq
import random
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.cache.document import CacheEntry
from repro.errors import CacheConfigurationError


class ReplacementPolicy:
    """Interface all replacement policies implement."""

    #: Which document expiration-age formula matches this policy's victim
    #: logic ("lru" uses Eq. 2, "lfu" uses the hit-counter ratio).
    expiration_age_kind = "lru"

    def on_admit(self, entry: CacheEntry) -> None:
        """A new entry was admitted."""
        raise NotImplementedError

    def on_hit(self, entry: CacheEntry) -> None:
        """An entry received a refreshing hit."""
        raise NotImplementedError

    def select_victim(self) -> str:
        """Return the URL of the next eviction victim.

        Raises:
            CacheConfigurationError: if the policy tracks no entries.
        """
        raise NotImplementedError

    def on_evict(self, entry: CacheEntry) -> None:
        """An entry was evicted (or explicitly invalidated)."""
        raise NotImplementedError

    def clear(self) -> None:
        """Forget all tracked entries."""
        raise NotImplementedError

    def _require_nonempty(self, size: int) -> None:
        if size == 0:
            raise CacheConfigurationError(
                f"{type(self).__name__}.select_victim called on an empty cache"
            )


class _OrderedPolicy(ReplacementPolicy):
    """Shared ``OrderedDict`` order-maintenance for list-ordered policies.

    LRU and FIFO differ only in whether a hit reorders the entry; admission
    at the tail, victim at the head, and eviction removal are identical.
    Keeping that bookkeeping in one place makes it the single canonical
    behaviour that the replay kernel's per-cache ``OrderedDict`` of slots
    mirrors.
    """

    def __init__(self) -> None:
        self._order: "OrderedDict[str, None]" = OrderedDict()

    def on_admit(self, entry: CacheEntry) -> None:
        self._order[entry.url] = None

    def select_victim(self) -> str:
        self._require_nonempty(len(self._order))
        return next(iter(self._order))

    def on_evict(self, entry: CacheEntry) -> None:
        self._order.pop(entry.url, None)

    def clear(self) -> None:
        self._order.clear()

    def recency_order(self) -> List[str]:
        """URLs from head (next victim) to tail (for tests/inspection)."""
        return list(self._order)


class LRUPolicy(_OrderedPolicy):
    """Least Recently Used: evict the entry unhit for the longest time."""

    expiration_age_kind = "lru"

    def on_hit(self, entry: CacheEntry) -> None:
        self._order.move_to_end(entry.url)

    def promote_to_head(self, url: str) -> None:
        """Move ``url`` to the most-recently-used position.

        Exposed for the EA responder rule, which promotes an entry "to the
        HEAD of the LRU list" without the entry receiving a client hit.
        """
        if url in self._order:
            self._order.move_to_end(url)


class FIFOPolicy(_OrderedPolicy):
    """First-In First-Out: evict in admission order, hits do not matter."""

    expiration_age_kind = "lru"

    def on_hit(self, entry: CacheEntry) -> None:
        pass


class _HeapPolicy(ReplacementPolicy):
    """Shared machinery for priority-driven policies using a lazy heap.

    Subclasses define :meth:`_priority`; lower priorities are evicted first.
    Stale heap records (from re-pushes after hits) are skipped on pop by
    comparing against the latest priority recorded per URL.

    Every hit pushes, and a record leaves only when it surfaces at a
    victim search, so the heap grows with hits, not with residents. That
    is left as it is on purpose: this class is the oracle the replay
    kernel's LFU heaps (one record per resident copy, re-keyed at the
    search) are tested against.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, str]] = []
        self._current: Dict[str, Tuple[float, int]] = {}
        self._seq = 0

    def _priority(self, entry: CacheEntry) -> float:
        raise NotImplementedError

    def _push(self, entry: CacheEntry) -> None:
        self._seq += 1
        priority = self._priority(entry)
        self._current[entry.url] = (priority, self._seq)
        heapq.heappush(self._heap, (priority, self._seq, entry.url))

    def on_admit(self, entry: CacheEntry) -> None:
        self._push(entry)

    def on_hit(self, entry: CacheEntry) -> None:
        self._push(entry)

    def select_victim(self) -> str:
        self._require_nonempty(len(self._current))
        while self._heap:
            priority, seq, url = self._heap[0]
            if self._current.get(url) == (priority, seq):
                return url
            heapq.heappop(self._heap)  # stale record
        raise CacheConfigurationError("heap policy state corrupted: no live records")

    def on_evict(self, entry: CacheEntry) -> None:
        self._current.pop(entry.url, None)

    def clear(self) -> None:
        self._heap.clear()
        self._current.clear()
        self._seq = 0


class LFUPolicy(_HeapPolicy):
    """Least Frequently Used; ties broken by least recent refresh."""

    expiration_age_kind = "lfu"

    def _priority(self, entry: CacheEntry) -> float:
        return float(entry.hit_count)


class SizePolicy(_HeapPolicy):
    """SIZE policy: evict the largest document first (Williams et al.)."""

    expiration_age_kind = "lru"

    def _priority(self, entry: CacheEntry) -> float:
        return -float(entry.size)

    def on_hit(self, entry: CacheEntry) -> None:
        # Size never changes, so hits do not reorder anything.
        pass


class GreedyDualSizePolicy(_HeapPolicy):
    """GreedyDual-Size (Cao & Irani 1997) with uniform miss cost.

    H(doc) = L + cost/size; on eviction L rises to the victim's H, aging
    every remaining entry relative to newcomers.
    """

    expiration_age_kind = "lru"

    def __init__(self, cost: float = 1.0):
        super().__init__()
        if cost <= 0:
            raise CacheConfigurationError("GDS cost must be positive")
        self._cost = cost
        self._inflation = 0.0

    def _priority(self, entry: CacheEntry) -> float:
        return self._inflation + self._cost / entry.size

    def select_victim(self) -> str:
        url = super().select_victim()
        self._inflation = self._current[url][0]
        return url


class GDSFPolicy(GreedyDualSizePolicy):
    """GreedyDual-Size-Frequency: H = L + freq * cost / size."""

    expiration_age_kind = "lfu"

    def _priority(self, entry: CacheEntry) -> float:
        return self._inflation + entry.hit_count * self._cost / entry.size


class RandomPolicy(ReplacementPolicy):
    """Uniform random eviction (seeded, deterministic).

    Maintains an array + index map for O(1) membership updates and O(1)
    victim draws.
    """

    expiration_age_kind = "lru"

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._urls: List[str] = []
        self._index: Dict[str, int] = {}

    def on_admit(self, entry: CacheEntry) -> None:
        if entry.url not in self._index:
            self._index[entry.url] = len(self._urls)
            self._urls.append(entry.url)

    def on_hit(self, entry: CacheEntry) -> None:
        pass

    def select_victim(self) -> str:
        self._require_nonempty(len(self._urls))
        return self._urls[self._rng.randrange(len(self._urls))]

    def on_evict(self, entry: CacheEntry) -> None:
        index = self._index.pop(entry.url, None)
        if index is None:
            return
        last = self._urls.pop()
        if last != entry.url:
            self._urls[index] = last
            self._index[last] = index

    def clear(self) -> None:
        self._urls.clear()
        self._index.clear()


class LFUAgingPolicy(LFUPolicy):
    """LFU with periodic counter aging to stop stale heavy hitters pinning.

    When the mean hit counter across tracked entries exceeds
    ``max_average_count``, every counter is halved (floored at 1) — the
    classic LFU-Aging variant.
    """

    expiration_age_kind = "lfu"

    def __init__(self, max_average_count: float = 10.0):
        super().__init__()
        if max_average_count <= 1:
            raise CacheConfigurationError("max_average_count must exceed 1")
        self._max_average = max_average_count
        self._entries: Dict[str, CacheEntry] = {}

    def on_admit(self, entry: CacheEntry) -> None:
        self._entries[entry.url] = entry
        super().on_admit(entry)

    def on_hit(self, entry: CacheEntry) -> None:
        super().on_hit(entry)
        self._maybe_age()

    def on_evict(self, entry: CacheEntry) -> None:
        self._entries.pop(entry.url, None)
        super().on_evict(entry)

    def clear(self) -> None:
        self._entries.clear()
        super().clear()

    def _maybe_age(self) -> None:
        if not self._entries:
            return
        average = sum(e.hit_count for e in self._entries.values()) / len(self._entries)
        if average <= self._max_average:
            return
        for entry in self._entries.values():
            entry.hit_count = max(1, entry.hit_count // 2)
            self._push(entry)


_POLICY_FACTORIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "lfu": LFUPolicy,
    "size": SizePolicy,
    "gds": GreedyDualSizePolicy,
    "gdsf": GDSFPolicy,
    "random": RandomPolicy,
    "lfu-aging": LFUAgingPolicy,
}


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Instantiate a policy by name (``lru``, ``lfu``, ``fifo``, ``size``,
    ``gds``, ``gdsf``, ``random``, ``lfu-aging``)."""
    try:
        factory = _POLICY_FACTORIES[name.lower()]
    except KeyError:
        raise CacheConfigurationError(
            f"unknown replacement policy {name!r}; expected one of {sorted(_POLICY_FACTORIES)}"
        ) from None
    return factory(**kwargs)
