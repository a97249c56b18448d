"""A time window runs the vector regimes.

The cold prefix evicts nothing, so while it lasts every cache's time
window is empty, and a read that trims an empty window changes nothing:
the object core's reads during the prefix have no effect the kernel could
miss by skipping them. From the split on, the loop makes every read and
every fold on the object core's own trackers, in its order. So
``window_mode="time"`` is not a row of ``batch_fastloop_reason``; these
cases are the evidence, whole and in chunks of 1 and 7, for both schemes,
with a window short enough that reads trim between evictions: equal
``to_json`` and equal event streams against the object core and the
columnar loop.
"""

from __future__ import annotations

import io

import pytest

from repro.fastpath import batch_fastloop_reason, simulate_batch, simulate_columnar
from repro.fastpath.numeric import load_numpy
from repro.obs.events import RunRecorder
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig


def observed(config, trace, engine, chunk_size=None, regimes=None):
    sink = io.StringIO()
    recorder = RunRecorder(sink)
    if engine == "object":
        result = CooperativeSimulator(config, obs=recorder).run(trace)
    elif engine == "columnar":
        result = simulate_columnar(config, trace, obs=recorder, chunk_size=chunk_size)
    else:
        result = simulate_batch(
            config, trace, obs=recorder, chunk_size=chunk_size, regimes=regimes
        )
    return result.to_json(), sink.getvalue()


@pytest.mark.parametrize("window_seconds", [30.0, 600.0])
@pytest.mark.parametrize("scheme", ["adhoc", "ea"])
def test_time_window_replays_like_the_object_core(bu_style_trace, scheme, window_seconds):
    config = SimulationConfig(
        scheme=scheme, num_caches=4, aggregate_capacity=400_000,
        window_mode="time", window_seconds=window_seconds,
    )
    want = observed(config, bu_style_trace, "object")
    assert '"e":"evict"' in want[1]
    assert observed(config, bu_style_trace, "columnar", 7) == want
    for chunk_size in (1, 7, None):
        regimes: dict = {}
        assert observed(config, bu_style_trace, "batch", chunk_size, regimes) == want
        if load_numpy() is not None:
            assert "fallback_reason" not in regimes and regimes["cold"] > 0
            # Unobserved, the same replay.
            unobserved = simulate_batch(config, bu_style_trace, chunk_size=chunk_size)
            assert unobserved.to_json() == want[0]
    if load_numpy() is not None:
        assert batch_fastloop_reason(config) is None
