"""Generated differential: the batch fast loop against the object core.

The batch twin of ``test_core_differential.py``. The hand-written matrices
in ``tests/fastpath`` run the warm kernel at default windows on traces
whose documents never change size mid-run; here hypothesis draws the whole
fast-loop envelope — scheme, architecture (a hierarchy with one or two
parents, and one with more parents than leaves, whose childless parents
are leaves without a parent), LRU and LFU, group size, the three windows
(a ring small enough to wrap, the cumulative sum, a time window that
trims between requests), tie-break, replica cap, chunking down to one
request and at 97 — at capacities where some documents are larger than a
cache and some admissions evict several victims, over traces with
multi-member runs, equal timestamps and sizes that change per request (so
the engine's lean mode is off, or latches off mid-trace). What the kernel
leaves to the post-pass is exactly what ``to_json`` reports: admissions,
rejections and declines are read from outcome bytes, evictions follow from
conservation, a parent hop's counts and fixed bytes from a leaf's origin
misses, expiration ages are refreshed lazily.

The second half pins what the lazy age cells rest on: the window fold the
loop runs inline is fed chosen age sequences through a real replay and
compared, sum and age, with ``ExpirationAgeTracker.record`` after every request.
"""

from __future__ import annotations

from collections import deque
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache.expiration import ExpirationAgeTracker
from repro.fastpath import batch
from repro.fastpath.batch import batch_fastloop_reason, simulate_batch
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig
from repro.trace.record import Trace, TraceRecord
from repro.trace.stream import RecordStream

from tests.property.test_core_differential import group_size, topologies

#: (client, doc, time step, sizes of the run's members): one step is one
#: run of 1-3 consecutive requests by one client for one document, each
#: with its own size. Size 0 is patched to 4 KB, above the smaller
#: capacities; a step of 0 ties timestamps, across runs and inside them.
_sizes = st.sampled_from([0, 100, 200, 300, 700, 1500, 3000])
_runs = st.tuples(
    st.integers(0, 7),
    st.integers(0, 20),
    st.sampled_from([0.0, 0.25, 1.0, 1.0, 4.0]),
    st.lists(_sizes, min_size=1, max_size=3),
)
workloads = st.lists(_runs, min_size=25, max_size=120)

configs = st.builds(
    lambda topology, per_cache, **fields: SimulationConfig(
        architecture=topology[0],
        num_caches=topology[1],
        num_parents=topology[2],
        aggregate_capacity=per_cache * group_size(topology),
        **fields,
    ),
    topology=topologies,
    # 1 500 bytes rejects the 3 000-byte and the patched documents and
    # holds a handful of small ones; 9 000 holds everything but evicts.
    per_cache=st.integers(1_500, 9_000),
    scheme=st.sampled_from(["adhoc", "ea"]),
    policy=st.sampled_from(["lru", "lfu"]),
    window_mode=st.sampled_from(["count", "cumulative", "time"]),
    window_size=st.integers(1, 10),
    window_seconds=st.sampled_from([0.5, 2.0, 6.0, 25.0]),
    tie_break=st.sampled_from(["requester", "responder"]),
    max_replica_fraction=st.sampled_from([None, 0.1, 0.4]),
)


def build_trace(steps) -> Trace:
    records = []
    clock = 0.0
    for client, doc, step, sizes in steps:
        for size in sizes:
            clock += step
            records.append(
                TraceRecord(
                    timestamp=clock,
                    client_id=f"client{client}",
                    url=f"http://d/{doc}",
                    size=size,
                )
            )
    return Trace(records)


@given(
    steps=workloads,
    config=configs,
    chunk_size=st.one_of(st.none(), st.integers(1, 48), st.just(97)),
    streamed=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_fast_loop_replays_like_the_object_core(steps, config, chunk_size, streamed):
    trace = build_trace(steps)
    expected = CooperativeSimulator(config).run(trace).to_json()
    source = RecordStream(lambda: iter(trace.records), len(trace)) if streamed else trace
    regimes: dict = {}
    got = simulate_batch(config, source, chunk_size=chunk_size, regimes=regimes)
    assert got.to_json() == expected
    reason = batch_fastloop_reason(config)
    if reason is None:
        # The fast loop ran, and every request went through one regime.
        assert "fallback_reason" not in regimes
        assert regimes["cold"] + regimes["hit_run"] + regimes["scalar"] == len(trace)
        if config.architecture == "hierarchical" or config.policy == "lfu":
            assert regimes["cold"] == 0  # the cold regime's latch is off
    else:  # REPRO_NO_NUMPY: the columnar core replayed, to the same bytes
        assert regimes == {"fallback_reason": reason}


# --------------------------------------------------------------------- #
# The window fold, through the loop that runs it
# --------------------------------------------------------------------- #

CAPACITY = 3_000

#: (time step, size): every request asks one leaf for a *new* document, so
#: an admission evicts the oldest residents until it fits — up to three of
#: them for a 3 000-byte document — and a victim's age is a difference of
#: two of the timestamps. Huge and tiny steps side by side make the
#: running sum lose low bits, which is where another order of ``+=`` and
#: ``-=`` would show; a step of 0 gives equal timestamps and zero ages.
_new_documents = st.tuples(
    st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 50.0), st.floats(1e5, 1e9)),
    st.sampled_from([1_000, 1_000, 2_000, 3_000]),
)


def _reference_windows(records, window_mode, window_size):
    """Per request: ``(window sum, cache age, evictions so far)`` from an
    LRU of untouched documents feeding :meth:`ExpirationAgeTracker.record`."""
    tracker = ExpirationAgeTracker(window_mode=window_mode, window_size=window_size)
    resident: deque = deque()
    used = 0
    rows = []
    for record in records:
        while used + record.size > CAPACITY:
            size, touched = resident.popleft()
            used -= size
            tracker.record(record.timestamp - touched, record.timestamp)
        resident.append((record.size, record.timestamp))
        used += record.size
        window_sum = (
            tracker._window_sum if window_mode == "count" else tracker._cumulative_sum
        )
        rows.append((window_sum, tracker.cache_expiration_age(), tracker.total_evictions))
    return rows


class _Probe:
    """A ``timeseries`` stand-in: one callback per chunk, here per request."""

    def __init__(self, callback):
        self.sample = lambda **_counters: callback()


@given(
    window_mode=st.sampled_from(["count", "cumulative"]),
    window_size=st.integers(1, 10),
    steps=st.lists(_new_documents, min_size=12, max_size=60),
)
@settings(max_examples=150, deadline=None)
def test_window_fold_is_bit_equal_to_the_ring_tracker(window_mode, window_size, steps):
    if batch_fastloop_reason(SimulationConfig()) is not None:
        pytest.skip("no numpy: the fast loop and its window do not run")
    records = []
    clock = 0.0
    for index, (step, size) in enumerate(steps):
        clock += step
        records.append(TraceRecord(
            timestamp=clock, client_id="c", url=f"http://d/{index}", size=size
        ))
    expected = _reference_windows(records, window_mode, window_size)
    # The ring has to wrap: more evictions than two laps of it.
    assume(expected[-1][2] > 2 * window_size)
    config = SimulationConfig(
        scheme="ea", num_caches=2, aggregate_capacity=2 * CAPACITY,
        window_mode=window_mode, window_size=window_size,
    )

    states = []

    class Capturing(batch._FastState):
        def __init__(self, *args):
            super().__init__(*args)
            states.append(self)

    remaining = iter(expected)

    def after_each_request():
        window_sum, age, evictions = next(remaining)
        state = states[0]
        leaf = state.used.index(max(state.used))  # the one client's
        assert state.wsum[leaf] == window_sum
        if evictions:
            # The read the loop makes when it finds the cell stale.
            assert state.refresh_age(leaf) == age
        else:
            assert state.age_len[leaf] == 3 and state.cur_age[leaf] == age

    with mock.patch.object(batch, "_FastState", Capturing):
        result = simulate_batch(
            config, RecordStream(lambda: iter(records), len(records)),
            chunk_size=1, timeseries=_Probe(after_each_request),
        )
    assert next(remaining, None) is None
    # The other leaf never evicted; the busy one reports the last age.
    assert sorted(result.expiration_ages) == sorted([expected[-1][1], float("inf")])
