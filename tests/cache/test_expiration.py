"""Unit tests for expiration-age tracking (paper Eq. 2, Eq. 5)."""

from __future__ import annotations

import math
import random

import pytest

from repro.cache.document import EvictionRecord
from repro.cache.expiration import (
    ExpirationAgeTracker,
    document_expiration_age,
)
from repro.errors import CacheConfigurationError


def eviction(evict_time: float, last_hit: float = 0.0, entry: float = 0.0, hits: int = 1):
    return EvictionRecord(
        url="http://x",
        size=10,
        entry_time=entry,
        last_hit_time=last_hit,
        hit_count=hits,
        evict_time=evict_time,
    )


class TestDocumentExpirationAge:
    def test_lru_formula(self):
        assert document_expiration_age(eviction(10.0, last_hit=4.0), "lru") == 6.0

    def test_lfu_formula(self):
        record = eviction(12.0, entry=0.0, hits=4)
        assert document_expiration_age(record, "lfu") == 3.0

    def test_unknown_kind(self):
        with pytest.raises(CacheConfigurationError):
            document_expiration_age(eviction(1.0), "mru")


class TestTrackerValidation:
    def test_bad_kind(self):
        with pytest.raises(CacheConfigurationError):
            ExpirationAgeTracker(kind="fifo")

    def test_bad_window_mode(self):
        with pytest.raises(CacheConfigurationError):
            ExpirationAgeTracker(window_mode="forever")

    def test_bad_window_size(self):
        with pytest.raises(CacheConfigurationError):
            ExpirationAgeTracker(window_mode="count", window_size=0)

    def test_bad_window_seconds(self):
        with pytest.raises(CacheConfigurationError):
            ExpirationAgeTracker(window_mode="time", window_seconds=0.0)

    # NaN compares False with everything, so a ``<= 0`` check let it
    # through as a window that never trims.
    @pytest.mark.parametrize("seconds", [-1.0, math.nan, -math.inf])
    def test_window_seconds_must_be_positive(self, seconds):
        with pytest.raises(CacheConfigurationError, match="window_seconds"):
            ExpirationAgeTracker(window_mode="time", window_seconds=seconds)

    @pytest.mark.parametrize("size", [-1, math.nan])
    def test_window_size_must_be_positive(self, size):
        with pytest.raises(CacheConfigurationError, match="window_size"):
            ExpirationAgeTracker(window_mode="count", window_size=size)

    # A count window holds a whole number of victims.
    @pytest.mark.parametrize("size", [2.5, 1000.0, True, "1000"])
    def test_count_window_size_must_be_an_int(self, size):
        with pytest.raises(CacheConfigurationError, match="window_size must be an int"):
            ExpirationAgeTracker(window_mode="count", window_size=size)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_mode": "cumulative", "window_size": math.nan, "window_seconds": math.nan},
            {"window_mode": "count", "window_seconds": math.nan},
            {"window_mode": "time", "window_size": math.nan},
        ],
        ids=["cumulative", "count", "time"],
    )
    def test_only_the_mode_in_use_checks_its_window(self, kwargs):
        assert ExpirationAgeTracker(**kwargs).window_mode == kwargs["window_mode"]

    def test_infinite_window_seconds_keeps_every_victim(self):
        tracker = ExpirationAgeTracker(window_mode="time", window_seconds=math.inf)
        tracker.record_eviction(eviction(10.0, last_hit=8.0))
        tracker.record_eviction(eviction(1e9, last_hit=1e9 - 4.0))
        assert tracker.cache_expiration_age(now=1e12) == 3.0


class TestEmptyTracker:
    @pytest.mark.parametrize("mode", ["cumulative", "count", "time"])
    def test_no_evictions_means_infinite_age(self, mode):
        tracker = ExpirationAgeTracker(window_mode=mode)
        assert math.isinf(tracker.cache_expiration_age())

    def test_snapshot_empty(self):
        snap = ExpirationAgeTracker().snapshot()
        assert math.isinf(snap.cache_expiration_age)
        assert snap.victims_in_window == 0
        assert snap.total_evictions == 0


class TestCumulativeWindow:
    def test_mean_of_all_victims(self):
        tracker = ExpirationAgeTracker(window_mode="cumulative")
        tracker.record_eviction(eviction(10.0, last_hit=4.0))  # age 6
        tracker.record_eviction(eviction(20.0, last_hit=18.0))  # age 2
        assert tracker.cache_expiration_age() == pytest.approx(4.0)

    def test_total_evictions(self):
        tracker = ExpirationAgeTracker(window_mode="cumulative")
        for t in (1.0, 2.0, 3.0):
            tracker.record_eviction(eviction(t))
        assert tracker.total_evictions == 3


class TestCountWindow:
    def test_window_drops_oldest(self):
        tracker = ExpirationAgeTracker(window_mode="count", window_size=2)
        tracker.record_eviction(eviction(10.0, last_hit=0.0))  # age 10
        tracker.record_eviction(eviction(11.0, last_hit=10.0))  # age 1
        tracker.record_eviction(eviction(14.0, last_hit=11.0))  # age 3
        # Only the last two victims (ages 1, 3) remain.
        assert tracker.cache_expiration_age() == pytest.approx(2.0)

    def test_total_evictions_counts_beyond_window(self):
        tracker = ExpirationAgeTracker(window_mode="count", window_size=1)
        for t in (1.0, 2.0, 3.0):
            tracker.record_eviction(eviction(t, last_hit=t - 1.0))
        assert tracker.total_evictions == 3
        assert tracker.snapshot().victims_in_window == 1


class TestTimeWindow:
    def test_old_victims_expire(self):
        tracker = ExpirationAgeTracker(window_mode="time", window_seconds=5.0)
        tracker.record_eviction(eviction(0.0, last_hit=-10.0))  # age 10 at t=0
        tracker.record_eviction(eviction(10.0, last_hit=8.0))  # age 2 at t=10
        # At t=10, the first eviction (t=0) is older than 5s.
        assert tracker.cache_expiration_age(now=10.0) == pytest.approx(2.0)

    def test_query_time_trims(self):
        tracker = ExpirationAgeTracker(window_mode="time", window_seconds=5.0)
        tracker.record_eviction(eviction(0.0, last_hit=-3.0))  # age 3
        assert tracker.cache_expiration_age(now=3.0) == pytest.approx(3.0)
        assert math.isinf(tracker.cache_expiration_age(now=100.0))

    def test_without_now_uses_last_eviction_trim(self):
        tracker = ExpirationAgeTracker(window_mode="time", window_seconds=5.0)
        tracker.record_eviction(eviction(0.0, last_hit=-3.0))
        assert tracker.cache_expiration_age() == pytest.approx(3.0)


class TestWindowOfOne:
    """A count window of 1 is the smallest legal window: the cache
    expiration age is always exactly the latest victim's document age."""

    def test_age_is_latest_victim_only(self):
        tracker = ExpirationAgeTracker(window_mode="count", window_size=1)
        tracker.record_eviction(eviction(10.0, last_hit=0.0))  # age 10
        assert tracker.cache_expiration_age() == pytest.approx(10.0)
        tracker.record_eviction(eviction(11.0, last_hit=10.5))  # age 0.5
        assert tracker.cache_expiration_age() == pytest.approx(0.5)
        tracker.record_eviction(eviction(99.0, last_hit=9.0))  # age 90
        assert tracker.cache_expiration_age() == pytest.approx(90.0)

    def test_exact_for_representable_sums(self):
        """With dyadic ages every add-then-subtract on the running window
        sum is exact, so a one-slot window reports the newest victim's age
        bit-for-bit across hundreds of cycles (this arithmetic sequence is
        the reference the ring-buffer port matches operation-for-operation)."""
        tracker = ExpirationAgeTracker(window_mode="count", window_size=1)
        for i in range(1, 500):
            age = 2.0 ** -(i % 10)  # exact in double, as is float(i) - age
            tracker.record_eviction(eviction(float(i), last_hit=float(i) - age))
            assert tracker.cache_expiration_age() == age


class TestZeroAgeVictims:
    """A victim evicted at the instant of its last hit (age 0) signals
    maximal contention and must weigh the window down, not be skipped."""

    def test_zero_age_drags_mean_down(self):
        tracker = ExpirationAgeTracker(window_mode="count", window_size=10)
        tracker.record_eviction(eviction(10.0, last_hit=2.0))  # age 8
        tracker.record_eviction(eviction(10.0, last_hit=10.0))  # age 0
        assert tracker.cache_expiration_age() == pytest.approx(4.0)
        assert tracker.snapshot().victims_in_window == 2

    def test_all_zero_ages_is_zero_not_empty(self):
        tracker = ExpirationAgeTracker(window_mode="count", window_size=4)
        for t in (1.0, 2.0, 3.0):
            tracker.record_eviction(eviction(t, last_hit=t))
        assert tracker.cache_expiration_age() == 0.0
        assert not math.isinf(tracker.cache_expiration_age())

    def test_lfu_zero_age(self):
        tracker = ExpirationAgeTracker(kind="lfu", window_mode="count")
        tracker.record_eviction(eviction(5.0, entry=5.0, hits=3))  # 0/3
        assert tracker.cache_expiration_age() == 0.0


class TestLFUHitCountGuard:
    """The LFU ratio divides by HIT_COUNTER; a counter below 1 is
    impossible by construction (CacheEntry enforces the paper's
    'initialized to 1' rule), so the ratio can never divide by zero."""

    def test_cache_entry_rejects_zero_hit_count(self):
        from repro.cache.document import CacheEntry, Document

        with pytest.raises(CacheConfigurationError, match="hit_count starts at 1"):
            CacheEntry(
                document=Document("http://x", 10), entry_time=0.0, hit_count=0
            )
        with pytest.raises(CacheConfigurationError, match="hit_count starts at 1"):
            CacheEntry(
                document=Document("http://x", 10), entry_time=0.0, hit_count=-2
            )

    def test_minimum_hit_count_is_finite_age(self):
        record = eviction(7.0, entry=3.0, hits=1)
        tracker = ExpirationAgeTracker(kind="lfu", window_mode="cumulative")
        assert tracker.record_eviction(record) == pytest.approx(4.0)


class TestLFUKind:
    def test_uses_lfu_formula(self):
        tracker = ExpirationAgeTracker(kind="lfu", window_mode="cumulative")
        tracker.record_eviction(eviction(12.0, entry=0.0, hits=4))  # 12/4 = 3
        assert tracker.cache_expiration_age() == pytest.approx(3.0)


class TestReset:
    def test_reset_clears_everything(self):
        tracker = ExpirationAgeTracker(window_mode="count", window_size=10)
        tracker.record_eviction(eviction(5.0))
        tracker.reset()
        assert math.isinf(tracker.cache_expiration_age())
        assert tracker.total_evictions == 0

    @pytest.mark.parametrize("mode", ["cumulative", "count", "time"])
    def test_tracker_reusable_after_reset(self, mode):
        """Post-reset the tracker behaves exactly like a fresh one — the
        window restarts empty in every mode."""
        tracker = ExpirationAgeTracker(
            window_mode=mode, window_size=3, window_seconds=100.0
        )
        for t in (1.0, 2.0, 3.0, 4.0):
            tracker.record_eviction(eviction(t, last_hit=t - 5.0))  # ages 5
        tracker.reset()
        assert tracker.snapshot().victims_in_window == 0
        tracker.record_eviction(eviction(10.0, last_hit=8.0))  # age 2
        assert tracker.cache_expiration_age() == pytest.approx(2.0)
        assert tracker.total_evictions == 1


class TestRecordEvictionReturnValue:
    def test_returns_document_age(self):
        tracker = ExpirationAgeTracker(window_mode="count")
        assert tracker.record_eviction(eviction(10.0, last_hit=7.0)) == pytest.approx(3.0)


def _random_evictions(rng: random.Random, n: int):
    """A plausible eviction stream: monotone evict times, varied ages."""
    now = 0.0
    records = []
    for _ in range(n):
        now += rng.expovariate(1 / 30.0)
        entry = now - rng.uniform(1.0, 5_000.0)
        records.append(
            eviction(
                now,
                last_hit=entry + rng.uniform(0.0, now - entry),
                entry=entry,
                hits=rng.randint(1, 9),
            )
        )
    return records


class TestRecord:
    """``record(age, evict_time)``: the columnar core's entry point, fed
    the victim's already computed age. What it hands back is the value the
    engine keeps in its per-cache age cell, so it must be *bit*-equal to a
    read at that instant, not approximately equal."""

    @pytest.mark.parametrize(
        "window_kwargs",
        [
            {"window_mode": "cumulative"},
            {"window_mode": "count", "window_size": 1},
            {"window_mode": "count", "window_size": 7},
            {"window_mode": "time", "window_seconds": 120.0},
        ],
    )
    def test_returns_the_refreshed_cache_age(self, window_kwargs):
        by_record = ExpirationAgeTracker(kind="lfu", **window_kwargs)
        by_age = ExpirationAgeTracker(kind="lfu", **window_kwargs)
        for record in _random_evictions(random.Random(12), 300):
            by_record.record_eviction(record)
            refreshed = by_age.record(record.lfu_expiration_age, record.evict_time)
            assert refreshed == by_record.cache_expiration_age(record.evict_time)
            assert refreshed == by_age.cache_expiration_age(record.evict_time)
        assert by_age.snapshot() == by_record.snapshot()

    def test_zero_age_victims_count_toward_window(self):
        tracker = ExpirationAgeTracker(window_mode="count", window_size=3)
        assert tracker.record(10.0, 10.0) == 10.0
        assert tracker.record(0.0, 20.0) == 5.0
        assert tracker.snapshot().victims_in_window == 2

    def test_reset_forgets_everything(self):
        tracker = ExpirationAgeTracker(window_mode="count", window_size=4)
        for record in _random_evictions(random.Random(3), 20):
            tracker.record(record.lru_expiration_age, record.evict_time)
        tracker.reset()
        assert tracker.cache_expiration_age() == math.inf
        assert tracker.total_evictions == 0
        assert tracker.record(2.0, 1.0) == 2.0  # reusable, window restarted
