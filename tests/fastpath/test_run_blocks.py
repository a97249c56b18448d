"""The warm regime's run iterator: block-wise tuples from one start column.

``warm_loop`` walks ``(slot, start, end, first timestamp)`` per run. The
kernel used to build those as four whole-tail Python lists (memoised on
the trace for a tail starting at 0, rebuilt for every other tail); it now
keeps the chunk's run starts as one numpy column and makes the tuples one
block of ``batch._RUN_BLOCK`` runs at a time. The list segmentation is
kept here as the oracle: the tuples must be equal element for element at
every cut point and block size, and a replay must keep the object core's
bytes when run, block and chunk edges coincide. The last test pins what
the change is for: a memo-warm replay's traced peak per request, and no
run-long Python list held by the memo.
"""

from __future__ import annotations

import gc
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fastpath import batch, simulate_batch
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig, run_simulation
from repro.trace.record import Trace
from repro.trace.synthetic import bu_like_config, generate_trace

np = pytest.importorskip("numpy")


def _run_columns(np, slots_np, ts_np, lo, n):
    """The list segmentation of requests ``lo..n`` the kernel walked before
    the run iterator: ``(starts_l, sslots_l, sts_l, ends_l)``."""
    starts_np = batch._segments(np, slots_np[lo:n])[0]
    starts_np += lo
    starts_l = starts_np.tolist()
    ends_l = starts_l[1:]
    ends_l.append(n)
    return starts_l, slots_np[starts_np].tolist(), ts_np[starts_np].tolist(), ends_l


def _cut_points(slots):
    """Cut points by kind: the chunk start, inside a run, on a run start,
    the last request."""
    n = len(slots)
    return {
        "zero": [0],
        "inside": [i for i in range(1, n) if slots[i] == slots[i - 1]],
        "start": [i for i in range(1, n) if slots[i] != slots[i - 1]],
        "last": [n - 1],
    }


@given(
    data=st.data(),
    slots=st.lists(st.integers(0, 3), min_size=1, max_size=80),
    kind=st.sampled_from(["zero", "inside", "start", "last"]),
    block=st.sampled_from([1, 2, 3, batch._RUN_BLOCK]),
)
@settings(max_examples=300, deadline=None)
def test_runs_equal_the_list_segmentation(data, slots, kind, block):
    n = len(slots)
    candidates = _cut_points(slots)[kind]
    assume(candidates)
    lo = data.draw(st.sampled_from(candidates), label="lo")
    steps = data.draw(
        st.lists(st.sampled_from([0.0, 0.25, 1.0, 7.5]), min_size=n, max_size=n),
        label="steps",
    )
    slots_np = np.array(slots, dtype=np.int64)
    ts_np = np.cumsum(np.array(steps, dtype=np.float64))
    starts_l, sslots_l, sts_l, ends_l = _run_columns(np, slots_np, ts_np, lo, n)
    want = list(zip(sslots_l, starts_l, ends_l, sts_l))
    starts = batch._segments(np, slots_np)[0]
    with mock.patch.object(batch, "_RUN_BLOCK", block):
        got = list(batch._runs(np, starts, slots_np, ts_np, lo))
    assert got == want
    # Python ints and floats, as the list columns held: not numpy scalars.
    assert [tuple(map(type, run)) for run in got] == [(int, int, int, float)] * len(got)


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("chunk_size", [None, 97])
@pytest.mark.parametrize("scheme", ["adhoc", "ea"])
def test_replay_bytes_with_tiny_blocks(bu_style_trace, monkeypatch, block, chunk_size, scheme):
    """Blocks of one and three runs on a contended distributed-LRU replay,
    whole and in chunks of 97: run, block and chunk edges coincide."""
    monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
    monkeypatch.setattr(batch, "_RUN_BLOCK", block)
    config = SimulationConfig(scheme=scheme, aggregate_capacity=400_000, engine="batch")
    expected = CooperativeSimulator(config).run(bu_style_trace).to_json()
    regimes = {}
    trace = Trace(bu_style_trace.records)
    got = simulate_batch(config, trace, chunk_size=chunk_size, regimes=regimes)
    assert got.to_json() == expected
    # The tail is cut after a cold prefix, and it has both kinds of run.
    assert regimes["cold"] > 0 and regimes["hit_run"] > 0 and regimes["scalar"] > 0
    # Again on the memo-warm whole trace: the kept start column is reused.
    assert simulate_batch(config, trace, chunk_size=chunk_size).to_json() == expected


def _held_lists(value):
    """Every Python list reachable from a memo value through tuples, dicts
    and the slots of the kernel's column object."""
    found, stack = [], [value]
    while stack:
        obj = stack.pop()
        if isinstance(obj, list):
            found.append(obj)
        elif isinstance(obj, (tuple, dict, batch._ChunkColumns)):
            stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("tie_break", ["requester", "responder"])
def test_memo_warm_replay_memory(monkeypatch, tie_break):
    """A memo-warm contended replay's traced peak stays under 100 bytes a
    request (the whole-tail run lists cost ≈180), and the memo keeps no
    Python list as long as the run count. ``responder`` EA has no cold
    prefix, so its tail starts at 0: the tail whose lists the memo kept."""
    monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
    trace = generate_trace(bu_like_config().scaled(0.05))
    n = len(trace)
    config = SimulationConfig(
        scheme="ea", tie_break=tie_break, aggregate_capacity=1024 * 1024, engine="batch"
    )
    regimes = {}
    first = run_simulation(config, trace, regimes=regimes).to_json()
    assert regimes["hit_run"] > 0 and regimes["scalar"] > 0
    assert (regimes["cold"] == 0) == (tie_break == "responder")
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        second = run_simulation(config, trace).to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert second == first
    assert (peak - start) / n <= 100
    _key, cols = trace.interned().memo["batch_cols"]
    slots = cols.slots
    run_count = int(np.count_nonzero(slots[1:] != slots[:-1])) + 1
    assert run_count < n
    # Not even the scalar path's leaf column: in a group of up to 256
    # caches it is bytes.
    assert [len(held) for held in _held_lists(cols) if len(held) >= run_count] == []
