"""RingAgeTracker vs the deque-backed ExpirationAgeTracker.

The ring port must be *bit*-equal, not just approximately equal: the
windowed mean is a running float sum whose value depends on the exact
sequence of ``+=``/``-=`` operations, and the engine's EA decisions
compare these means directly.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.cache.document import EvictionRecord
from repro.cache.expiration import ExpirationAgeTracker
from repro.errors import CacheConfigurationError
from repro.fastpath.ringtracker import _INITIAL_TIME_CAPACITY, RingAgeTracker


def _random_evictions(rng: random.Random, n: int):
    """A plausible eviction stream: monotone evict times, varied ages."""
    now = 0.0
    records = []
    for _ in range(n):
        now += rng.expovariate(1 / 30.0)
        entry = now - rng.uniform(1.0, 5_000.0)
        last_hit = entry + rng.uniform(0.0, now - entry)
        records.append(
            EvictionRecord(
                url="http://doc/x",
                size=1024,
                entry_time=entry,
                last_hit_time=last_hit,
                hit_count=rng.randint(1, 9),
                evict_time=now,
            )
        )
    return records


def _pair(kind="lru", **kwargs):
    return (
        ExpirationAgeTracker(kind=kind, **kwargs),
        RingAgeTracker(kind=kind, **kwargs),
    )


@pytest.mark.parametrize("kind", ["lru", "lfu", "lifetime"])
@pytest.mark.parametrize(
    "window_kwargs",
    [
        {"window_mode": "cumulative"},
        {"window_mode": "count", "window_size": 1},
        {"window_mode": "count", "window_size": 7},
        {"window_mode": "count", "window_size": 1000},
        {"window_mode": "time", "window_seconds": 120.0},
        {"window_mode": "time", "window_seconds": 1e9},
    ],
    ids=["cumulative", "count1", "count7", "count1000", "time120", "timehuge"],
)
def test_bit_equal_under_interleaved_reads(kind, window_kwargs):
    """record_eviction + interleaved age reads stay bit-identical.

    Reads are side-effectful in time mode (they trim), so both trackers
    see the identical interleaving. The huge time window forces the ring
    past its initial capacity, exercising ``_grow``.
    """
    deque_tracker, ring_tracker = _pair(kind=kind, **window_kwargs)
    rng = random.Random(42)
    records = _random_evictions(rng, 3 * _INITIAL_TIME_CAPACITY)
    read_rng = random.Random(99)
    assert deque_tracker.cache_expiration_age() == math.inf
    assert ring_tracker.cache_expiration_age() == math.inf
    for record in records:
        age_a = deque_tracker.record_eviction(record)
        age_b = ring_tracker.record_eviction(record)
        assert age_a == age_b
        if read_rng.random() < 0.3:
            now = record.evict_time + read_rng.uniform(0.0, 200.0)
            assert deque_tracker.cache_expiration_age(
                now
            ) == ring_tracker.cache_expiration_age(now)
        assert (
            deque_tracker.cache_expiration_age()
            == ring_tracker.cache_expiration_age()
        )
    assert deque_tracker.total_evictions == ring_tracker.total_evictions
    assert deque_tracker.snapshot() == ring_tracker.snapshot()


def test_time_mode_growth_preserves_window_order():
    """Pushing far past the initial ring capacity without trims must keep
    the oldest-first order the trim loop depends on."""
    _, ring = _pair(window_mode="time", window_seconds=1e12)
    deque_tracker = ExpirationAgeTracker(window_mode="time", window_seconds=1e12)
    records = _random_evictions(random.Random(5), 5 * _INITIAL_TIME_CAPACITY + 3)
    for record in records:
        deque_tracker.record_eviction(record)
        ring.record_eviction(record)
    # Shrink the window and force a big trim in one read.
    now = records[-1].evict_time
    deque_tracker.window_seconds = 60.0
    ring.window_seconds = 60.0
    assert deque_tracker.cache_expiration_age(now) == ring.cache_expiration_age(now)
    assert deque_tracker.snapshot(now) == ring.snapshot(now)


def test_reset_forgets_everything():
    deque_tracker, ring = _pair(window_mode="count", window_size=4)
    for record in _random_evictions(random.Random(3), 20):
        deque_tracker.record_eviction(record)
        ring.record_eviction(record)
    deque_tracker.reset()
    ring.reset()
    assert ring.cache_expiration_age() == math.inf
    assert ring.total_evictions == 0
    assert deque_tracker.snapshot() == ring.snapshot()
    # The ring must be reusable after a reset.
    for record in _random_evictions(random.Random(4), 10):
        assert deque_tracker.record_eviction(record) == ring.record_eviction(record)
        assert deque_tracker.cache_expiration_age() == ring.cache_expiration_age()


def test_record_fast_path_equals_record_eviction():
    """The engine's pre-scored record(age, time) path equals the record API."""
    via_record, via_eviction = (
        RingAgeTracker(kind="lfu", window_mode="count", window_size=5),
        RingAgeTracker(kind="lfu", window_mode="count", window_size=5),
    )
    for record in _random_evictions(random.Random(8), 30):
        age = record.lfu_expiration_age
        via_record.record(age, record.evict_time)
        via_eviction.record_eviction(record)
        assert via_record.cache_expiration_age() == via_eviction.cache_expiration_age()
    assert via_record.snapshot() == via_eviction.snapshot()


@pytest.mark.parametrize(
    "window_kwargs",
    [
        {"window_mode": "cumulative"},
        {"window_mode": "count", "window_size": 1},
        {"window_mode": "count", "window_size": 7},
        {"window_mode": "time", "window_seconds": 120.0},
    ],
)
def test_record_returns_the_refreshed_cache_age(window_kwargs):
    """What record() hands back is the age both trackers report at that
    instant — the value the engine keeps in its per-cache cell."""
    deque_tracker, ring = _pair(kind="lfu", **window_kwargs)
    for record in _random_evictions(random.Random(12), 300):
        deque_tracker.record_eviction(record)
        refreshed = ring.record(record.lfu_expiration_age, record.evict_time)
        assert refreshed == deque_tracker.cache_expiration_age(record.evict_time)
        assert refreshed == ring.cache_expiration_age(record.evict_time)


def test_validation_matches_object_tracker():
    """Same rejects, same messages as ExpirationAgeTracker.__init__."""
    cases = [
        ({"kind": "mru"}, "unknown expiration-age kind"),
        ({"window_mode": "sliding"}, "unknown window mode"),
        ({"window_mode": "count", "window_size": 0}, "window_size must be positive"),
        ({"window_mode": "time", "window_seconds": 0.0}, "window_seconds must be positive"),
    ]
    for kwargs, match in cases:
        with pytest.raises(CacheConfigurationError, match=match) as ring_err:
            RingAgeTracker(**kwargs)
        with pytest.raises(CacheConfigurationError) as deque_err:
            ExpirationAgeTracker(**kwargs)
        assert str(ring_err.value) == str(deque_err.value)


def test_zero_age_victims_count_toward_window():
    """A victim evicted the instant it was last hit has age 0 — it must
    still occupy a window slot and drag the mean down."""
    deque_tracker, ring = _pair(window_mode="count", window_size=3)
    def rec(entry, hit, evict):
        return EvictionRecord(
            url="u", size=1, entry_time=entry, last_hit_time=hit,
            hit_count=1, evict_time=evict,
        )
    deque_tracker.record_eviction(rec(0.0, 0.0, 10.0))
    ring.record_eviction(rec(0.0, 0.0, 10.0))
    deque_tracker.record_eviction(rec(5.0, 20.0, 20.0))  # zero age
    ring.record_eviction(rec(5.0, 20.0, 20.0))
    assert ring.cache_expiration_age() == deque_tracker.cache_expiration_age() == 5.0
    assert ring.snapshot().victims_in_window == 2
