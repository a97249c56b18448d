"""Property-based tests for expiration-age tracking (paper Eq. 2 / Eq. 5)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.document import EvictionRecord
from repro.cache.expiration import ExpirationAgeTracker
from repro.fastpath import simulate_batch, simulate_columnar
from repro.fastpath.batch import _FastState
from repro.protocol.http import format_expiration_age
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig
from repro.trace.record import Trace, TraceRecord

# Generates (entry_offset, hit_offset, evict_offset, hits) tuples describing
# one document's life; offsets are accumulated to give monotone times.
lifecycles = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.001, max_value=50.0, allow_nan=False),
        st.integers(min_value=1, max_value=20),
    ),
    min_size=1,
    max_size=60,
)


def build_records(lifecycles):
    now = 0.0
    records = []
    for entry_offset, hit_offset, evict_offset, hits in lifecycles:
        entry_time = now + entry_offset
        last_hit = entry_time + hit_offset
        evict_time = last_hit + evict_offset
        records.append(
            EvictionRecord(
                url="http://p/x",
                size=10,
                entry_time=entry_time,
                last_hit_time=last_hit,
                hit_count=hits,
                evict_time=evict_time,
            )
        )
        now = evict_time
    return records


@given(lifecycles=lifecycles)
@settings(max_examples=200, deadline=None)
def test_cumulative_age_is_exact_mean(lifecycles):
    records = build_records(lifecycles)
    tracker = ExpirationAgeTracker(window_mode="cumulative")
    ages = [tracker.record_eviction(r) for r in records]
    assert tracker.cache_expiration_age() == math.fsum(ages) / len(ages) or (
        abs(tracker.cache_expiration_age() - sum(ages) / len(ages)) < 1e-9
    )


@given(lifecycles=lifecycles, window=st.integers(min_value=1, max_value=10))
@settings(max_examples=200, deadline=None)
def test_count_window_is_mean_of_last_k(lifecycles, window):
    records = build_records(lifecycles)
    tracker = ExpirationAgeTracker(window_mode="count", window_size=window)
    ages = [tracker.record_eviction(r) for r in records]
    expected = sum(ages[-window:]) / len(ages[-window:])
    assert abs(tracker.cache_expiration_age() - expected) < 1e-6


@given(lifecycles=lifecycles)
@settings(max_examples=200, deadline=None)
def test_ages_non_negative_and_bounded_by_lifetime(lifecycles):
    for record in build_records(lifecycles):
        assert 0.0 <= record.lru_expiration_age <= record.life_time
        assert 0.0 <= record.lfu_expiration_age <= record.life_time


@given(lifecycles=lifecycles)
@settings(max_examples=100, deadline=None)
def test_more_hits_never_raise_lfu_age(lifecycles):
    # For a fixed lifetime, the LFU age is inversely proportional to hits.
    for record in build_records(lifecycles):
        busier = EvictionRecord(
            url=record.url,
            size=record.size,
            entry_time=record.entry_time,
            last_hit_time=record.last_hit_time,
            hit_count=record.hit_count + 5,
            evict_time=record.evict_time,
        )
        assert busier.lfu_expiration_age <= record.lfu_expiration_age


@given(lifecycles=lifecycles, window_seconds=st.floats(min_value=0.5, max_value=500.0))
@settings(max_examples=100, deadline=None)
def test_time_window_subset_of_cumulative(lifecycles, window_seconds):
    records = build_records(lifecycles)
    tracker = ExpirationAgeTracker(window_mode="time", window_seconds=window_seconds)
    for record in records:
        tracker.record_eviction(record)
    age = tracker.cache_expiration_age()
    assert math.isinf(age) or age >= 0.0
    assert tracker.total_evictions == len(records)


# --------------------------------------------------------------------- #
# A window sum that drifts below zero must not become a negative age
# --------------------------------------------------------------------- #

#: Victim ages whose running ``+=`` / ``-=`` sum leaves float residue.
DRIFTING_AGES = [0.0, 0.1, 0.2, 0.3, 0.7, 1.1, 2.3, 1000.1]


def _object_fold(window, ages):
    tracker = ExpirationAgeTracker(window_mode="count", window_size=window)
    out = []
    for age in ages:
        tracker.record_eviction(
            EvictionRecord("http://p/x", 10, 0.0, 0.0, 1, evict_time=age)
        )
        out.append(tracker.cache_expiration_age())
    return out


def _ring_fold(window, ages):
    tracker = ExpirationAgeTracker(window_mode="count", window_size=window)
    out = [tracker.record(age, 0.0) for age in ages]
    assert tracker.cache_expiration_age() == out[-1]
    return out


def _batch_fold(window, ages):
    """The batch kernel's per-victim window record, then the cell read."""
    np = pytest.importorskip("numpy")
    state = _FastState(SimulationConfig(window_size=window), np)
    out = []
    for age in ages:
        total = state.wsum[0] + age
        if len(state.win[0]) == window:
            total -= state.win[0][0]
        state.win[0].append(age)
        state.wsum[0] = total
        state.age_len[0] = -1
        state.wire_len(0, None)  # the header read: recompute and format
        out.append(state.cur_age[0])
    return out


FOLDS = [_object_fold, _ring_fold, _batch_fold]


@pytest.mark.parametrize("fold", FOLDS)
def test_window_sum_below_zero_reads_as_age_zero(fold):
    # Leaves _window_sum == -2.7755575615628914e-17 on every fold.
    ages = fold(2, [1.1, 0.2, 0.0, 0.0])
    assert ages[-1] == 0.0
    assert format_expiration_age(ages[-1]) == "0.000000"


@given(
    window=st.integers(min_value=1, max_value=10),
    ages=st.lists(st.sampled_from(DRIFTING_AGES), min_size=1, max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_windowed_ages_never_negative_and_folds_agree(window, ages):
    reported = [fold(window, ages) for fold in FOLDS]
    assert all(age >= 0.0 for age in reported[0])
    assert reported[0] == reported[1] == reported[2]


# (ticks per second, (tick, client, doc) rows), shrunk from random traces: each makes one
# cache's window sum end a few ulps below zero with that age then sent in
# a header, which raised ProtocolError("expiration age cannot be negative").
NEGATIVE_AGE_REPLAYS = {
    # tenth-of-a-second timestamps, LRU ages: the batch fast loop's fold
    "lru": (10, [(13, 0, 2), (26, 0, 1), (48, 0, 4), (48, 0, 3), (48, 1, 7),
                  (48, 1, 9), (66, 3, 7)]),
    # integer timestamps, LFU ages (lifetime / hits): the columnar core's
    "lfu": (1, [(2, 0, 2), (5, 0, 2), (7, 0, 2), (25, 0, 8), (28, 1, 8),
                  (31, 0, 8), (31, 0, 7), (41, 0, 0), (41, 0, 2), (41, 1, 5),
                  (41, 2, 8)]),
}


@pytest.mark.parametrize("policy", sorted(NEGATIVE_AGE_REPLAYS))
def test_replay_with_drifting_window_sum_agrees_on_every_engine(policy):
    per_second, rows = NEGATIVE_AGE_REPLAYS[policy]
    trace = Trace([
        TraceRecord(t / per_second, f"c{c}", f"http://h/d{d}", 1000)
        for t, c, d in rows
    ])
    config = SimulationConfig(
        scheme="ea", num_caches=2, aggregate_capacity=4000, window_size=2, policy=policy
    )
    wanted = CooperativeSimulator(config).run(trace).to_json()
    assert simulate_columnar(config, trace).to_json() == wanted
    assert simulate_batch(config, trace).to_json() == wanted
