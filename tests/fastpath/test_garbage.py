"""Fast-engine replay state must die by refcount, not wait for the cyclic GC.

A closure that refers to itself (or any other reference cycle through the
replay state) pins every state column until the collector happens to run,
so peak memory grows with the number of replays in between.
"""

from __future__ import annotations

import gc
import io
import weakref

import pytest

from repro.fastpath import simulate_batch, simulate_columnar
from repro.obs.events import RunRecorder
from repro.simulation.simulator import SimulationConfig
from repro.trace import Trace

CAPACITY = 600_000


def _observed(config, trace):
    """A batch replay with a recorder attached, snapshots included."""
    recorder = RunRecorder(io.StringIO(), snapshot_interval=600.0)
    return simulate_batch(config, trace, obs=recorder)


SHAPES = [
    ("columnar-distributed-lru", simulate_columnar, {}),
    (
        "columnar-hierarchical-lfu",
        simulate_columnar,
        {"architecture": "hierarchical", "policy": "lfu"},
    ),
    ("batch", simulate_batch, {}),
    # Escalation runs the admission site twice in one request.
    (
        "batch-hierarchical-lfu",
        simulate_batch,
        {"architecture": "hierarchical", "policy": "lfu"},
    ),
    ("observed", _observed, {}),
]


@pytest.mark.parametrize(
    "simulate,overrides",
    [pytest.param(fn, kw, id=name) for name, fn, kw in SHAPES],
)
def test_replay_leaves_no_cyclic_garbage(bu_style_trace, simulate, overrides):
    config = SimulationConfig(
        scheme="ea", num_caches=4, aggregate_capacity=CAPACITY, **overrides
    )
    simulate(config, bu_style_trace)  # warm the per-trace memo columns
    gc.collect()
    gc.disable()
    try:
        result = simulate(config, bu_style_trace)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert result.metrics.requests == len(bu_style_trace.records)


def test_a_replayed_trace_dies_by_refcount(bu_style_trace):
    """What the replays keep in the whole-trace chunk's memo must not
    refer back to the chunk: dropping the trace frees its columns at once."""
    trace = Trace(bu_style_trace.records)
    for _name, simulate, overrides in SHAPES:
        config = SimulationConfig(
            scheme="ea", num_caches=4, aggregate_capacity=CAPACITY, **overrides
        )
        simulate(config, trace)
    assert trace.interned().memo  # the replays did keep something
    dead = weakref.ref(trace)
    gc.collect()
    gc.disable()
    try:
        del trace
        assert dead() is None
        # A chunk <-> memo cycle would be found, and counted, here.
        assert gc.collect() == 0
    finally:
        gc.enable()
