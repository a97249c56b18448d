"""Ring-buffer port of :class:`repro.cache.expiration.ExpirationAgeTracker`.

Same three window modes (cumulative / count / time), same +inf-when-empty
contract, same running-sum arithmetic — but the window lives in
preallocated parallel ``ages``/``times`` rings instead of a deque of
tuples, so recording an eviction allocates nothing.

Float identity matters here: the engine must report bit-identical
expiration ages to the object tracker, and the window sum is a running
float accumulation whose value depends on operation order. This port
performs the *same sequence* of ``+=``/``-=`` on the sum as the deque
implementation (add the new age first, then subtract evictees), so the
sums — and every decision derived from them — are bit-equal. Like it,
every age read off a window sum is floored at ``0.0``: the running sum of
non-negative ages can end a few ulps below zero.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.cache.document import EvictionRecord
from repro.cache.expiration import (
    TRACKER_KINDS,
    WINDOW_MODES,
    ExpirationAgeSnapshot,
    document_expiration_age,
)
from repro.errors import CacheConfigurationError

#: Initial ring capacity for the time-window mode, which has no fixed
#: victim count; the ring doubles as needed.
_INITIAL_TIME_CAPACITY = 64


class RingAgeTracker:
    """Drop-in :class:`ExpirationAgeTracker` replacement on a ring buffer.

    The engine feeds it pre-computed document ages via :meth:`record`,
    which answers with the cache's refreshed expiration age;
    :meth:`record_eviction` keeps the object tracker's record-based API for
    parity tests and external callers.
    """

    __slots__ = (
        "kind",
        "window_mode",
        "window_size",
        "window_seconds",
        "_ages",
        "_times",
        "_head",
        "_count",
        "_capacity",
        "_window_sum",
        "_cumulative_sum",
        "_total_evictions",
    )

    def __init__(
        self,
        kind: str = "lru",
        window_mode: str = "count",
        window_size: int = 1000,
        window_seconds: float = 3600.0,
    ):
        if kind not in TRACKER_KINDS:
            raise CacheConfigurationError(f"unknown expiration-age kind {kind!r}")
        if window_mode not in WINDOW_MODES:
            raise CacheConfigurationError(
                f"unknown window mode {window_mode!r}; expected one of {WINDOW_MODES}"
            )
        if window_mode == "count" and window_size <= 0:
            raise CacheConfigurationError("window_size must be positive")
        if window_mode == "time" and window_seconds <= 0:
            raise CacheConfigurationError("window_seconds must be positive")
        self.kind = kind
        self.window_mode = window_mode
        self.window_size = window_size
        self.window_seconds = window_seconds
        capacity = window_size if window_mode == "count" else _INITIAL_TIME_CAPACITY
        self._capacity = capacity
        self._ages: List[float] = [0.0] * capacity
        self._times: List[float] = [0.0] * capacity
        self._head = 0  # ring index of the oldest windowed victim
        self._count = 0  # victims currently in the window
        self._window_sum = 0.0
        self._cumulative_sum = 0.0
        self._total_evictions = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record(self, age: float, evict_time: float) -> float:
        """Fold one eviction (pre-computed document age) into the window.

        Returns the cache expiration age that now holds — what
        :meth:`cache_expiration_age` would answer at ``evict_time``. In the
        cumulative and count modes that value stands until the next
        ``record``, so the engine keeps it in a cell and never calls back
        for it; in the time mode any later read may trim the window.
        """
        total = self._total_evictions + 1
        self._total_evictions = total
        cumulative_sum = self._cumulative_sum + age
        self._cumulative_sum = cumulative_sum
        mode = self.window_mode
        if mode == "cumulative":
            return cumulative_sum / total
        if mode == "count":
            # Same arithmetic order as the deque tracker: add the new age,
            # then subtract the displaced oldest one.
            window_sum = self._window_sum + age
            count = self._count
            capacity = self._capacity
            head = self._head
            if count == capacity:
                ages = self._ages
                window_sum -= ages[head]
                ages[head] = age
                self._head = head + 1 if head + 1 < capacity else 0
            else:
                self._ages[(head + count) % capacity] = age
                count += 1
                self._count = count
            self._window_sum = window_sum
            return max(0.0, window_sum / count)
        # time mode: append (growing if full), then trim lazily. The trim
        # cannot reach the victim just appended, so the window is not empty.
        if self._count == self._capacity:
            self._grow()
        slot = (self._head + self._count) % self._capacity
        self._ages[slot] = age
        self._times[slot] = evict_time
        self._count += 1
        self._window_sum += age
        self._trim_time(evict_time)
        return max(0.0, self._window_sum / self._count)

    def record_eviction(self, record: EvictionRecord) -> float:
        """Object-tracker-compatible entry point: score, record, return the
        document's age."""
        age = document_expiration_age(record, self.kind)
        self.record(age, record.evict_time)
        return age

    def _grow(self) -> None:
        """Double the time-mode ring, unrolling it to start at index 0."""
        capacity = self._capacity
        head = self._head
        order = [(head + i) % capacity for i in range(self._count)]
        ages = self._ages
        times = self._times
        new_capacity = capacity * 2
        self._ages = [ages[i] for i in order] + [0.0] * (new_capacity - self._count)
        self._times = [times[i] for i in order] + [0.0] * (new_capacity - self._count)
        self._capacity = new_capacity
        self._head = 0

    def _trim_time(self, now: float) -> None:
        cutoff = now - self.window_seconds
        times = self._times
        ages = self._ages
        capacity = self._capacity
        head = self._head
        count = self._count
        window_sum = self._window_sum
        while count and times[head] < cutoff:
            window_sum -= ages[head]
            head = head + 1 if head + 1 < capacity else 0
            count -= 1
        self._head = head
        self._count = count
        self._window_sum = window_sum

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def cache_expiration_age(self, now: Optional[float] = None) -> float:
        """Paper Eq. 5 over the configured window; ``+inf`` when empty."""
        if self.window_mode == "cumulative":
            if self._total_evictions == 0:
                return math.inf
            return self._cumulative_sum / self._total_evictions
        if self.window_mode == "time" and now is not None:
            self._trim_time(now)
        if not self._count:
            return math.inf
        return max(0.0, self._window_sum / self._count)

    @property
    def total_evictions(self) -> int:
        """Evictions observed over the tracker's lifetime."""
        return self._total_evictions

    def snapshot(self, now: Optional[float] = None) -> ExpirationAgeSnapshot:
        """Immutable view of the tracker's current state."""
        in_window = (
            self._total_evictions
            if self.window_mode == "cumulative"
            else self._count
        )
        return ExpirationAgeSnapshot(
            cache_expiration_age=self.cache_expiration_age(now),
            victims_in_window=in_window,
            total_evictions=self._total_evictions,
        )

    def reset(self) -> None:
        """Forget all observed evictions (start a fresh window)."""
        self._head = 0
        self._count = 0
        self._window_sum = 0.0
        self._cumulative_sum = 0.0
        self._total_evictions = 0
