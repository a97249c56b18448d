"""One replay, three column backings: lists, typed buffers, whole trace.

The batch engine takes a chunk's request columns as numpy arrays whatever
they were built from — ``np.array`` over the lists an interner produced,
zero-copy views over the ``array`` buffers the packed reader fills, or
the memoised whole-trace columns — derives the leaf and patched-size
columns vectorially for the streamed ones, and builds the Python lists
its scalar path indexes only from the chunk where the cold regime ends.
The object engine's ``to_json`` is the oracle for all three, over the
parameters those derivations branch on: partitioner, patch size, chunk
size, and a capacity that puts the cold -> warm switch inside a chunk.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fastpath.batch import simulate_batch
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig
from repro.trace.columnar_io import PackedTraceReader, write_packed
from repro.trace.stream import RecordStream

from .test_simulation_properties import build_trace

np = pytest.importorskip("numpy")


@pytest.fixture(autouse=True)
def _fast_loop_only(monkeypatch):
    monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)


# (client, doc, size_seed) steps for ``build_trace``; size_seed 0 is a
# zero-size record, which the run patches to ``patch_size``.
_requests = st.tuples(st.integers(0, 9), st.integers(0, 30), st.integers(0, 40))
workloads = st.lists(_requests, min_size=20, max_size=160)


@given(
    steps=workloads,
    scheme=st.sampled_from(["adhoc", "ea"]),
    caches=st.integers(2, 4),
    capacity=st.integers(6_000, 40_000),
    partitioner=st.sampled_from(["hash", "round-robin-client", "round-robin-request"]),
    patch_size=st.sampled_from([4096, 1]),
    chunk_size=st.integers(2, 64),
)
@settings(max_examples=80, deadline=None)
def test_every_backing_replays_like_the_object_engine(
    steps, scheme, caches, capacity, partitioner, patch_size, chunk_size
):
    trace = build_trace(steps)
    config = SimulationConfig(
        scheme=scheme,
        num_caches=caches,
        aggregate_capacity=caches * capacity,
        partitioner=partitioner,
        patch_size=patch_size,
    )
    whole: dict = {}
    got = simulate_batch(config, trace, regimes=whole)
    split = whole["cold"]
    assume(0 < split < len(trace) and split % chunk_size)
    expected = CooperativeSimulator(config).run(trace).to_json()
    assert got.to_json() == expected

    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "t.rpct")
        write_packed(path, trace, chunk_size=chunk_size)
        with PackedTraceReader(path) as reader:
            for source in (RecordStream(lambda: iter(trace.records)), reader):
                regimes: dict = {}
                got = simulate_batch(
                    config, source, chunk_size=chunk_size, regimes=regimes
                )
                assert got.to_json() == expected
                assert regimes == whole
