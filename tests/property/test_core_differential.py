"""Generated differential: the columnar core against the object core.

The hand-written matrices in ``tests/fastpath`` and ``tests/obs`` cross
scheme x architecture x policy at default windows; they never put
hierarchical + LFU under a ``time`` or ``cumulative`` window, a wrapped
count ring or the replica cap. Here hypothesis
draws the whole config, a trace whose timestamps tie and jump, and a chunk
size, and demands what the engine's contract says: equal ``to_json`` and
equal ``repro-events/1`` bytes, snapshots on. Expiration ages are event
payload and the lengths of their wire text are ``http_header_bytes``, so
this is the oracle for the core's cached age cells — a cell that misses a
refresh after an eviction, or a cell read under ``window_mode="time"``
(where only the tracker knows what a read trims), changes one or both.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.simulator import SimulationConfig
from repro.trace.record import Trace, TraceRecord

from tests.obs.conftest import stream_for

#: Simulated seconds between snapshot events: a few requests apart.
SNAPSHOT_INTERVAL = 3.0

#: (client, doc, size_seed, time step): equal timestamps (step 0) make the
#: LFU sequence counter the only tie-break there is; steps of 4 carry the
#: clock past a whole time window between two requests.
_requests = st.tuples(
    st.integers(0, 7),
    st.integers(0, 24),
    st.integers(0, 30),
    st.sampled_from([0.0, 0.25, 1.0, 1.0, 4.0]),
)
workloads = st.lists(_requests, min_size=30, max_size=140)

#: (architecture, num_caches, num_parents); the last has more parents than
#: leaves, so one root has no child and is never probed.
topologies = st.sampled_from(
    [
        ("distributed", 2, 1),
        ("distributed", 4, 1),
        ("hierarchical", 3, 1),
        ("hierarchical", 4, 2),
        ("hierarchical", 2, 3),
    ]
)


def group_size(topology) -> int:
    architecture, num_caches, num_parents = topology
    return num_caches + (num_parents if architecture == "hierarchical" else 0)


configs = st.builds(
    lambda topology, per_cache, **fields: SimulationConfig(
        architecture=topology[0],
        num_caches=topology[1],
        num_parents=topology[2],
        aggregate_capacity=per_cache * group_size(topology),
        **fields,
    ),
    topology=topologies,
    per_cache=st.integers(4_500, 14_000),
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
    for client, doc, size_seed, step in steps:
        clock += step
        records.append(
            TraceRecord(
                timestamp=clock,
                client_id=f"client{client}",
                url=f"http://d/{doc}",
                size=size_seed * 100,
            )
        )
    return Trace(records)


@given(
    steps=workloads,
    config=configs,
    chunk_size=st.one_of(st.none(), st.integers(1, 48)),
)
@settings(max_examples=250, deadline=None)
def test_columnar_core_replays_like_the_object_core(steps, config, chunk_size):
    trace = build_trace(steps)
    expected_events, expected = stream_for(config, trace, "object", SNAPSHOT_INTERVAL)
    got_events, got = stream_for(
        config, trace, "columnar", SNAPSHOT_INTERVAL, chunk_size=chunk_size
    )
    assert got.to_json() == expected.to_json()
    assert got_events == expected_events
