"""Property tests for the batch engine's cold -> warm transition.

While no cache has filled, the batch engine keeps recency in the
``lh``/``seq`` columns; at the first admission that could evict it
materialises one ``OrderedDict`` per cache from them (``leave_cold``) and
the per-run kernel takes over. The object engine's ``to_json`` is the
oracle; where the switch lands relative to the chunk grid is steered from
the engine's own ``cold`` tally, which is the global index of the switch
and does not depend on chunking.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fastpath.batch import _FastState, simulate_batch
from repro.fastpath.structures import IntrusiveLRUList
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig
from repro.trace.record import Trace
from repro.trace.stream import RecordStream

from .test_simulation_properties import build_trace

np = pytest.importorskip("numpy")


@pytest.fixture(autouse=True)
def _fast_loop_only(monkeypatch):
    # The transition exists only in the numpy fast loop.
    monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)


# (client, doc, size_seed) steps for ``build_trace``: a few clients per leaf,
# documents shared between leaves (remote hits while cold), sizes that fill
# a small cache in a few dozen admissions. Either every request draws its
# own size (stored sizes deviate from the size column) or a document keeps
# one size, as in a real trace (the engine's lean mode).
_requests = st.tuples(st.integers(0, 7), st.integers(0, 30), st.integers(1, 40))
workloads = st.one_of(
    st.lists(_requests, min_size=20, max_size=160),
    st.lists(
        _requests.map(lambda step: (step[0], step[1], step[1] % 40 + 1)),
        min_size=20,
        max_size=160,
    ),
)
num_caches = st.integers(2, 4)
per_cache_capacity = st.integers(6_000, 40_000)
window_modes = st.sampled_from(["cumulative", "count"])


def make_config(scheme, caches, capacity, window_mode, **extra) -> SimulationConfig:
    return SimulationConfig(
        scheme=scheme,
        num_caches=caches,
        aggregate_capacity=caches * capacity,
        window_mode=window_mode,
        window_size=4,
        **extra,
    )


def oracle(config, trace) -> str:
    return CooperativeSimulator(config).run(trace).to_json()


def switch_index(config, trace) -> int:
    """Global request index at which the batch engine leaves the cold regime."""
    regimes: dict = {}
    simulate_batch(config, trace, regimes=regimes)
    return regimes["cold"]


def streamed(trace) -> RecordStream:
    return RecordStream(lambda: iter(trace.records), len(trace))


@given(
    steps=workloads, scheme=st.sampled_from(["adhoc", "ea"]), caches=num_caches,
    capacity=per_cache_capacity, window_mode=window_modes, chunk_size=st.integers(2, 64),
)
@settings(max_examples=60, deadline=None)
def test_switch_mid_chunk(steps, scheme, caches, capacity, window_mode, chunk_size):
    trace = build_trace(steps)
    config = make_config(scheme, caches, capacity, window_mode)
    split = switch_index(config, trace)
    assume(0 < split < len(trace) and split % chunk_size)
    expected = oracle(config, trace)
    for source in (trace, streamed(trace)):
        regimes: dict = {}
        got = simulate_batch(config, source, chunk_size=chunk_size, regimes=regimes)
        assert got.to_json() == expected
        assert regimes["cold"] == split
        assert sum(regimes.values()) == len(trace)


@given(
    steps=workloads, scheme=st.sampled_from(["adhoc", "ea"]), caches=num_caches,
    capacity=per_cache_capacity, window_mode=window_modes, data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_switch_on_chunk_boundary_after_cold_streamed_chunks(
    steps, scheme, caches, capacity, window_mode, data
):
    trace = build_trace(steps)
    config = make_config(scheme, caches, capacity, window_mode)
    split = switch_index(config, trace)
    assume(2 <= split < len(trace))
    # chunk_size divides the switch index: >= 2 chunks replay fully cold
    # (deferring their last-touch fixups), the next one starts warm.
    cold_chunks = data.draw(
        st.sampled_from([m for m in range(2, split + 1) if split % m == 0])
    )
    regimes: dict = {}
    got = simulate_batch(
        config, streamed(trace), chunk_size=split // cold_chunks, regimes=regimes
    )
    assert got.to_json() == oracle(config, trace)
    assert regimes["cold"] == split


@given(
    steps=workloads, caches=num_caches, capacity=per_cache_capacity,
    window_mode=window_modes, chunk_size=st.integers(1, 64),
)
@settings(max_examples=60, deadline=None)
def test_adhoc_promotions_touch_slots_while_cold(
    steps, caches, capacity, window_mode, chunk_size
):
    trace = build_trace(steps)
    config = make_config("adhoc", caches, capacity, window_mode)
    split = switch_index(config, trace)
    assume(0 < split < len(trace))
    # Ad-hoc grants a promotion on every remote hit: the responder's copy
    # is re-touched by a request that is not its own slot's.
    cold_prefix = CooperativeSimulator(config).run(Trace(trace.records[:split]))
    assume(sum(s.promotions_granted for s in cold_prefix.cache_stats) > 0)
    got = simulate_batch(config, streamed(trace), chunk_size=chunk_size)
    assert got.to_json() == oracle(config, trace)


@given(
    steps=workloads, caches=num_caches, capacity=per_cache_capacity,
    window_mode=window_modes, chunk_size=st.integers(1, 64),
)
@settings(max_examples=60, deadline=None)
def test_ea_responder_ties_never_run_cold(
    steps, caches, capacity, window_mode, chunk_size
):
    """EA + tie_break="responder" declines stores at equal (inf) ages, so
    the cold invariant never holds: the kernel starts on empty LRUs."""
    trace = build_trace(steps)
    config = make_config(
        "ea", caches, capacity, window_mode, tie_break="responder"
    )
    regimes: dict = {}
    got = simulate_batch(
        config, streamed(trace), chunk_size=chunk_size, regimes=regimes
    )
    assert got.to_json() == oracle(config, trace)
    assert regimes["cold"] == 0


NC = 3
NUM_DOCS = 12

slot_touches = st.lists(
    st.tuples(st.integers(0, NUM_DOCS * NC - 1), st.floats(0.0, 1e6)),
    unique_by=lambda pair: pair[0],
    min_size=1,
)
lru_ops = st.lists(
    st.tuples(st.sampled_from(["hit", "admit", "evict"]), st.integers(0, NUM_DOCS - 1)),
    max_size=80,
)


@given(resident=slot_touches, fixups=slot_touches, ops=lru_ops, data=st.data())
@settings(max_examples=100, deadline=None)
def test_materialised_lru_is_seq_order_and_tracks_the_lru_list(
    resident, fixups, ops, data
):
    state = _FastState(
        SimulationConfig(scheme="adhoc", num_caches=NC, aggregate_capacity=NC << 20),
        np,
    )
    state.grow(SimpleNamespace(
        new_urls=["u"] * NUM_DOCS,
        new_url_lens=[1] * NUM_DOCS,
        new_icp_probe_bytes=[1] * NUM_DOCS,
    ))
    # Distinct touch indices, as one request touches one slot per cache.
    touch_index = data.draw(st.permutations(range(len(resident) + len(fixups))))
    last = {}
    for (slot, ts), g in zip(resident, touch_index):
        state.present_b[slot] = 1
        state.seq[slot] = g
        state.lh[slot] = ts
        last[slot] = (g, ts)
    # A deferred cold-segment fixup wins only where it is newer.
    pending = [
        (slot, g, ts)
        for (slot, ts), g in zip(fixups, touch_index[len(resident):])
        if slot in last
    ]
    if pending:
        slots, gs, tss = zip(*pending)
        state.pending.append((
            np.array(slots, dtype=np.intp), np.array(gs, dtype=np.int64),
            np.array(tss, dtype=np.float64),
        ))
        for slot, g, ts in pending:
            if g > last[slot][0]:
                last[slot] = (g, ts)

    state.leave_cold()

    assert not state.cold and not state.pending
    for cache, od in enumerate(state.lru):
        mine = sorted(
            (slot for slot in last if slot % NC == cache), key=lambda s: last[s][0]
        )
        assert list(od.items()) == [(slot, last[slot][1]) for slot in mine]

    # The kernel's three idioms against the array-linked list the columnar
    # core evicts from, on the same operations.
    od = state.lru[0]
    reference = IntrusiveLRUList(NUM_DOCS)
    for slot in od:
        reference.push(slot // NC)
    for now, (op, doc) in enumerate(ops):
        slot = doc * NC
        if op == "hit" and slot in od:
            od[slot] = float(now)
            od.move_to_end(slot)
            reference.touch(doc)
        elif op == "admit" and slot not in od:
            od[slot] = float(now)
            reference.push(doc)
        elif op == "evict" and od:
            victim, _ = od.popitem(last=False)
            assert victim // NC == reference.head()
            reference.remove(reference.head())
        assert [slot // NC for slot in od] == reference.order()
