"""Fast-engine replay state must die by refcount, not wait for the cyclic GC.

A closure that refers to itself (or any other reference cycle through the
replay state) pins every state column until the collector happens to run,
so peak memory grows with the number of replays in between.
"""

from __future__ import annotations

import gc

import pytest

from repro.fastpath import simulate_batch, simulate_columnar
from repro.simulation.simulator import SimulationConfig

CAPACITY = 600_000

SHAPES = [
    ("columnar-distributed-lru", simulate_columnar, {}),
    (
        "columnar-hierarchical-lfu",
        simulate_columnar,
        {"architecture": "hierarchical", "policy": "lfu"},
    ),
    ("batch", simulate_batch, {}),
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
