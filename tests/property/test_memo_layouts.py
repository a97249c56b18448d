"""One trace object, many layouts: a memo hit must never be a stale hit.

A whole-trace chunk keeps the per-run columns derived from it — leaf
assignment, patched sizes and their digit counts, the batch precompute —
one layout per kind, and the next replay of the same ``Trace`` object
takes them when its layout key matches. Every other differential builds
a fresh trace per replay, so none of them can see a column kept under a
key that misses something it depends on. Here one object (record-built,
and ``generate_trace``-built) is replayed under a drawn sequence of
configs, each differing from the last in one thing those columns may
branch on — partitioner, group size, architecture, patch size, whole or
sliced, columnar or batch; each replay
must equal the same config on a fresh trace and on the object core.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath import simulate_batch, simulate_columnar
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig
from repro.trace.synthetic import SyntheticTraceConfig, generate_trace

from .test_simulation_properties import build_trace

# (client, doc, size_seed) steps for ``build_trace``; size_seed 0 is a
# zero-size record, which the run patches to ``patch_size``.
_requests = st.tuples(st.integers(0, 9), st.integers(0, 30), st.integers(0, 40))
workloads = st.lists(_requests, min_size=20, max_size=120)

synthetic_configs = st.builds(
    SyntheticTraceConfig,
    num_requests=st.integers(20, 200),
    num_documents=st.integers(5, 40),
    num_clients=st.integers(1, 9),
    mean_size=st.just(1_500),
    max_size=st.just(6_000),
    zero_size_fraction=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32),
)

#: What a replay is drawn from: ``SimulationConfig`` fields, plus the chunk
#: size (None replays whole, through the memo) and the engine entry point.
CHOICES = {
    "scheme": st.sampled_from(["adhoc", "ea"]),
    "partitioner": st.sampled_from(
        ["hash", "round-robin-client", "round-robin-request"]
    ),
    "num_caches": st.integers(2, 5),
    "architecture": st.sampled_from(["distributed", "hierarchical"]),
    "patch_size": st.sampled_from([4096, 700, 1]),
    "aggregate_capacity": st.sampled_from([12_000, 40_000, 1 << 30]),
    "chunk_size": st.one_of(st.none(), st.integers(2, 64)),
    "simulate": st.sampled_from([simulate_columnar, simulate_batch]),
}

#: A first replay, then edits of one choice each: the next replay differs
#: from the one before in exactly the field a memo key could be missing.
sequences = st.tuples(
    st.fixed_dictionaries(CHOICES),
    st.lists(
        st.one_of(
            *[st.tuples(st.just(name), values) for name, values in CHOICES.items()]
        ),
        min_size=1,
        max_size=6,
    ),
)

#: Everything the fast engines may keep on a whole-trace chunk.
MEMO_KINDS = {"leaf", "sizes", "batch_cols"}


def _check_sequence(make_trace, sequence):
    trace = make_trace()
    replay, edits = sequence
    for name, value in [(None, None)] + edits:
        replay = {**replay, name: value} if name else replay
        fields = dict(replay)
        simulate, chunk_size = fields.pop("simulate"), fields.pop("chunk_size")
        config = SimulationConfig(**fields)
        got = simulate(config, trace, chunk_size=chunk_size).to_json()
        assert got == simulate(config, make_trace(), chunk_size=chunk_size).to_json()
        assert got == CooperativeSimulator(config).run(make_trace()).to_json()
    # One layout per kind, however many were replayed.
    assert set(trace.interned().memo) <= MEMO_KINDS


@given(steps=workloads, sequence=sequences)
@settings(max_examples=60, deadline=None)
def test_record_built_trace_replays_like_a_fresh_one(steps, sequence):
    _check_sequence(lambda: build_trace(steps), sequence)


@given(workload=synthetic_configs, sequence=sequences)
@settings(max_examples=40, deadline=None)
def test_generated_trace_replays_like_a_fresh_one(workload, sequence):
    _check_sequence(lambda: generate_trace(workload), sequence)
