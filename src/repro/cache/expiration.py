"""Expiration-age accounting (the paper's core measurement, Section 3.2).

The *document expiration age* of an evicted document is

* LRU caches (Eq. 2): ``T_evict - T_last_hit``
* LFU caches (§3.2.2): ``(T_evict - T_enter) / HIT_COUNTER``

and the *cache expiration age* over a finite window (Eq. 5) is the mean of
the document expiration ages of the victims evicted in that window. A high
cache expiration age means low disk-space contention.

The paper leaves the window ("a finite time duration (TI, Tj)") unspecified;
:class:`ExpirationAgeTracker` supports three interpretations, ablated in
``benchmarks/test_bench_ablation_window.py``:

* ``cumulative`` — all evictions since the cache started,
* ``count`` — the most recent ``window_size`` evictions (default, K=1000),
* ``time`` — evictions within the trailing ``window_seconds`` seconds.

A cache that has evicted nothing has no contention signal; its expiration
age is defined as ``+inf`` (no contention), which makes the EA scheme
degenerate to the ad-hoc scheme until caches fill — preserving the paper's
"never worse than ad-hoc" bootstrap behaviour.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.cache.document import EvictionRecord
from repro.errors import CacheConfigurationError

#: Window-mode names accepted by :class:`ExpirationAgeTracker`.
WINDOW_MODES = ("cumulative", "count", "time")


#: Tracker measures: the paper's two expiration-age formulas plus the
#: "Average Document Life Time" measure its Section 3.1 argues against —
#: supported so the argument is testable (``ablation-measure``).
TRACKER_KINDS = ("lru", "lfu", "lifetime")


def document_expiration_age(record: EvictionRecord, kind: str) -> float:
    """Contention score of one eviction under the named measure.

    Args:
        record: The eviction to score.
        kind: ``"lru"`` (Eq. 2), ``"lfu"`` (hit-counter ratio), or
            ``"lifetime"`` (Section 3.1's rejected Average Document Life
            Time: eviction time minus entry time).
    """
    if kind == "lru":
        return record.lru_expiration_age
    if kind == "lfu":
        return record.lfu_expiration_age
    if kind == "lifetime":
        return record.life_time
    raise CacheConfigurationError(
        f"unknown expiration-age kind {kind!r}; expected one of {TRACKER_KINDS}"
    )


@dataclass(frozen=True)
class ExpirationAgeSnapshot:
    """Point-in-time view of a tracker's state (for reports and tests)."""

    cache_expiration_age: float
    victims_in_window: int
    total_evictions: int


class ExpirationAgeTracker:
    """Maintains the cache expiration age over a configurable window.

    The tracker is fed one :class:`~repro.cache.document.EvictionRecord` per
    eviction via :meth:`record_eviction` (or the victim's already computed
    age via :meth:`record`, as the replay kernel does in a time window) and answers
    :meth:`cache_expiration_age` in O(1) (count/cumulative modes) or
    amortised O(1) (time mode).
    """

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
        if window_mode == "count":
            # A count of victims: 2.5 or True is no such count.
            if isinstance(window_size, bool) or not isinstance(window_size, int):
                raise CacheConfigurationError(
                    f"window_size must be an int, got {window_size!r}"
                )
            if window_size <= 0:
                raise CacheConfigurationError("window_size must be positive")
        # ``not x > 0`` rather than ``x <= 0``: a NaN window must be
        # refused, not accepted as a window that never trims.
        if window_mode == "time" and not window_seconds > 0:
            raise CacheConfigurationError("window_seconds must be positive")
        self.kind = kind
        self.window_mode = window_mode
        self.window_size = window_size
        self.window_seconds = window_seconds
        self._window: Deque[Tuple[float, float]] = deque()  # (evict_time, age)
        self._window_sum = 0.0
        self._cumulative_sum = 0.0
        self._total_evictions = 0

    def record(self, age: float, evict_time: float) -> float:
        """Fold one eviction, given its pre-computed document age.

        Returns the cache expiration age that now holds — what
        :meth:`cache_expiration_age` would answer at ``evict_time``. In the
        cumulative and count modes that value stands until the next
        ``record`` (the replay kernel folds those windows inline, with
        the same ``+=``/``-=`` sequence, and keeps the age in a cell); in
        the time mode any later read may trim the window.
        """
        self._total_evictions += 1
        self._cumulative_sum += age
        if self.window_mode == "cumulative":
            return self._cumulative_sum / self._total_evictions
        window = self._window
        window.append((evict_time, age))
        self._window_sum += age
        if self.window_mode == "count":
            while len(window) > self.window_size:
                _, old = window.popleft()
                self._window_sum -= old
        else:  # time mode: trim lazily against the newest eviction time
            # (which cannot reach the victim just appended)
            self._trim_time(evict_time)
        return max(0.0, self._window_sum / len(window))

    def record_eviction(self, record: EvictionRecord) -> float:
        """Fold one eviction into the window; returns its document age."""
        age = document_expiration_age(record, self.kind)
        self.record(age, record.evict_time)
        return age

    def _trim_time(self, now: float) -> None:
        cutoff = now - self.window_seconds
        while self._window and self._window[0][0] < cutoff:
            _, old = self._window.popleft()
            self._window_sum -= old

    def cache_expiration_age(self, now: Optional[float] = None) -> float:
        """Paper Eq. 5: mean victim age in the window; ``+inf`` if empty.

        Args:
            now: Current time, used only by the time-window mode to expire
                old victims; ignored otherwise.
        """
        if self.window_mode == "cumulative":
            if self._total_evictions == 0:
                return math.inf
            return self._cumulative_sum / self._total_evictions
        if self.window_mode == "time" and now is not None:
            self._trim_time(now)
        if not self._window:
            return math.inf
        # The running sum of non-negative ages can end a few ulps below
        # zero once the large ones have left the window; an age cannot.
        return max(0.0, self._window_sum / len(self._window))

    @property
    def total_evictions(self) -> int:
        """Evictions observed over the tracker's lifetime."""
        return self._total_evictions

    def snapshot(self, now: Optional[float] = None) -> ExpirationAgeSnapshot:
        """Immutable view of the tracker's current state."""
        in_window = (
            self._total_evictions
            if self.window_mode == "cumulative"
            else len(self._window)
        )
        return ExpirationAgeSnapshot(
            cache_expiration_age=self.cache_expiration_age(now),
            victims_in_window=in_window,
            total_evictions=self._total_evictions,
        )

    def reset(self) -> None:
        """Forget all observed evictions (start a fresh window)."""
        self._window.clear()
        self._window_sum = 0.0
        self._cumulative_sum = 0.0
        self._total_evictions = 0
