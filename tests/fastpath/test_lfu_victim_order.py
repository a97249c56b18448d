"""The replay kernel's LFU victim order against ``LFUPolicy``.

The kernel keeps one ``(hit count, seq, slot)`` heap record per resident
copy: a hit advances only the slot's live count and sequence, and the
victim search re-keys a stale top in place (see the module docstring of
:mod:`repro.fastpath.batch`). The object core's :class:`LFUPolicy` pushes
a record on every hit instead. After any replay both must hold the same
copies in the same victim order, and the kernel's heap exactly one
record per resident copy, whose key never runs ahead of the live one.

Two mutations these are written to catch: a hit that does not advance
the sequence (count ties then break by admission instead of by last
refresh), and a stale top that is popped instead of re-keyed (the copy
stays resident but leaves the heap).
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath import batch
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig
from repro.trace.record import Trace, TraceRecord


def replay(config, trace, chunk_size=None):
    """Replay ``trace`` on the object core and on the kernel, assert equal
    bytes, and return ``(object simulator, kernel state)`` after the run."""
    states = []

    class Capturing(batch._FastState):
        def __init__(self, *args):
            super().__init__(*args)
            states.append(self)

    sim = CooperativeSimulator(config)
    expected = sim.run(trace).to_json()
    with mock.patch.object(batch, "_FastState", Capturing):
        got = batch.simulate_batch(config, trace, chunk_size=chunk_size)
    assert got.to_json() == expected
    (state,) = states
    assert state.num_caches == len(state.heaps) == len(sim.group.caches)
    return sim, state


def resident_slots(state, cache):
    nc = state.num_caches
    return [s for s in range(cache, len(state.present_b), nc) if state.present_b[s]]


def kernel_victim_order(state, urls, cache):
    """Resident URLs of ``cache`` by live ``(count, seq)``: the order the
    victim search pops them in."""
    slots = sorted(
        resident_slots(state, cache),
        key=lambda s: (state.hits[s], state.live_seq[s]),
    )
    return [urls[s // state.num_caches] for s in slots]


def policy_victim_order(proxy):
    """Drain the object cache's policy: its victims, first to last."""
    order = []
    for _ in range(len(proxy)):
        url = proxy.policy.select_victim()
        proxy.policy.on_evict(SimpleNamespace(url=url))
        order.append(url)
    return order


def assert_one_record_per_resident(state, cache):
    heap = state.heaps[cache]
    assert sorted(slot for _, _, slot in heap) == resident_slots(state, cache)
    for count, tick, slot in heap:
        # Counts and seqs only rise, so a record trails its slot's live
        # pair, and one that holds the live seq holds the live count.
        assert count <= state.hits[slot] and tick <= state.live_seq[slot]
        assert tick < state.live_seq[slot] or count == state.hits[slot]


def interned_urls(trace):
    """Doc ids as the kernel interns them: order of first appearance."""
    return list(dict.fromkeys(record.url for record in trace.records))


def leaf0_order(requests: str, scheme: str = "adhoc"):
    """Leaf 0's victim order, as doc letters, after replaying ``requests``
    (``<client><doc>`` tokens of 100 bytes) on two caches of three copies.

    Clients take leaves in order of first appearance, so the first
    client's requests land on leaf 0. The object core's order and the
    kernel's heap are checked on the way.
    """
    trace = Trace([
        TraceRecord(
            timestamp=float(i), client_id=token[0], url=f"http://d/{token[1]}", size=100
        )
        for i, token in enumerate(requests.split())
    ])
    config = SimulationConfig(
        scheme=scheme, policy="lfu", num_caches=2, aggregate_capacity=600,
        partitioner="round-robin-client",
    )
    sim, state = replay(config, trace)
    order = kernel_victim_order(state, interned_urls(trace), 0)
    assert order == policy_victim_order(sim.group.caches[0])
    assert_one_record_per_resident(state, 0)
    return [url.rsplit("/", 1)[1] for url in order]


class TestVictimOrder:
    def test_least_frequent_copy_is_evicted(self):
        # a:3 b:2 c:1 when d arrives.
        assert leaf0_order("pa pb pc pa pa pb pd") == ["d", "b", "a"]

    def test_count_ties_break_by_least_recent_refresh(self):
        # a and b both reach 2; a was refreshed after b, so d evicts b.
        assert leaf0_order("pa pb pc pb pa pc pc pd") == ["d", "a", "c"]

    def test_stale_top_is_rekeyed_not_dropped(self):
        # a's admission record is stale at d's search; a stays resident
        # and must keep its (re-keyed) record while b, then c, go.
        assert leaf0_order("pa pb pa pc pd pe") == ["d", "e", "a"]

    def test_readmitted_copy_starts_a_fresh_count(self):
        # a (count 2) is evicted by e and readmitted with count 1, so f
        # evicts it. With its old count it would tie d, refreshed
        # earlier, and d would go instead.
        assert leaf0_order("pa pa pb pb pb pc pd pd pe pa pf") == ["f", "d", "b"]

    @pytest.mark.parametrize(
        "scheme, order",
        [("adhoc", ["d", "a", "c"]), ("ea", ["b", "d", "c"])],
        ids=["adhoc", "ea"],
    )
    def test_remote_hit_refreshes_the_responder_only_when_granted(self, scheme, order):
        # q's request for a is a remote hit on p's leaf. Ad-hoc grants the
        # responder's copy one hit (a:2, below c:3), so d evicts b; EA at
        # equal (infinite) ages stores at the requester and withholds the
        # promotion, so d evicts a.
        assert leaf0_order("pa pb pc pc pc qa pd", scheme) == order


@pytest.mark.parametrize("architecture", ["distributed", "hierarchical"])
@pytest.mark.parametrize("scheme", ["adhoc", "ea"])
def test_every_cache_matches_the_policy_after_an_evicting_replay(
    bu_style_trace, scheme, architecture
):
    config = SimulationConfig(
        scheme=scheme, architecture=architecture, policy="lfu",
        aggregate_capacity=400_000,
    )
    sim, state = replay(config, bu_style_trace, chunk_size=700)
    urls = interned_urls(bu_style_trace)
    evictions = 0
    for cache, proxy in enumerate(sim.group.caches):
        evictions += proxy.stats.evictions
        assert_one_record_per_resident(state, cache)
        assert kernel_victim_order(state, urls, cache) == policy_victim_order(proxy)
    assert evictions > 100


#: (client, doc, run length): consecutive requests for one document are
#: local hits after the first; a few clients per leaf make remote hits,
#: whose granted promotions refresh the responder's copy.
_runs = st.tuples(st.integers(0, 5), st.integers(0, 15), st.integers(1, 3))


@given(
    runs=st.lists(_runs, min_size=10, max_size=100),
    caches=st.sampled_from([2, 3]),
    per_cache=st.integers(250, 1_200),
    scheme=st.sampled_from(["adhoc", "ea"]),
    architecture=st.sampled_from(["distributed", "hierarchical"]),
    chunk_size=st.one_of(st.none(), st.integers(1, 40)),
)
@settings(max_examples=120, deadline=None)
def test_generated_replays_keep_the_policy_order(
    runs, caches, per_cache, scheme, architecture, chunk_size
):
    records = []
    for client, doc, length in runs:
        for _ in range(length):
            records.append(TraceRecord(
                timestamp=float(len(records)), client_id=f"c{client}",
                url=f"http://d/{doc}", size=100 + 50 * (doc % 4),
            ))
    trace = Trace(records)
    config = SimulationConfig(
        scheme=scheme, architecture=architecture, policy="lfu",
        num_caches=caches, aggregate_capacity=caches * per_cache,
    )
    sim, state = replay(config, trace, chunk_size=chunk_size)
    urls = interned_urls(trace)
    for cache, proxy in enumerate(sim.group.caches):
        assert_one_record_per_resident(state, cache)
        assert kernel_victim_order(state, urls, cache) == policy_victim_order(proxy)
