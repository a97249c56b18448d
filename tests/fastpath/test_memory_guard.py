"""A guard on the memory of the vector regimes, in bytes per request.

A sweep replays one materialised trace at many points, so the batch
precompute is kept in the trace's memo; an observed replay runs the same
regimes with a recorder attached. Measured with ``tracemalloc`` on a fixed
BU-like trace (28,788 requests, seed 42, 1 MB over 4 caches, EA), with the
modules imported and a throwaway replay done first:

* the memo keeps 27.4 bytes a request — a one-byte leaf, int32 slots,
  sizes and run starts, float64 timestamps, the distinct-slot groups —
  where every column as int64 kept 103;
* a memo-warm replay peaks 53.7 bytes a request above its start (69.4
  with the whole-chunk post-pass temporaries), an observed one 63.7.

The bounds sit about 10% above those readings: one kept column widened
from 4 to 8 bytes a request, or a chunk-long temporary put back, fails
here. ``tracemalloc`` counts requested bytes, so the readings do not
depend on the allocator or on what else the machine runs.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.fastpath import simulate_batch
from repro.fastpath.numeric import load_numpy
from repro.obs.events import RunRecorder
from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace.synthetic import bu_like_config, generate_trace

pytestmark = pytest.mark.skipif(
    load_numpy() is None, reason="numpy unavailable: the vector regimes do not run"
)

MEMO_BYTES = 30.0
PEAK_BYTES = 58.0
OBSERVED_PEAK_BYTES = 70.0

CONFIG = SimulationConfig(scheme="ea", aggregate_capacity=1 << 20, engine="batch")


class NullSink:
    def write(self, text):
        pass


@pytest.fixture(scope="module")
def readings():
    """Bytes per request: kept by the memo, and two replays' peaks."""
    warm = generate_trace(bu_like_config(seed=1).scaled(0.01))
    run_simulation(CONFIG, warm)
    simulate_batch(CONFIG, warm, obs=RunRecorder(NullSink()))
    trace = generate_trace(bu_like_config().scaled(0.05))
    n = len(trace)
    trace.interned()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        first = run_simulation(CONFIG, trace).to_json()
        gc.collect()
        memo = tracemalloc.get_traced_memory()[0] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        second = run_simulation(CONFIG, trace).to_json()
        peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        simulate_batch(CONFIG, trace, obs=RunRecorder(NullSink()))
        observed = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert first == second
    assert "batch_cols" in trace.interned().memo
    return n, memo / n, peak / n, observed / n


def test_the_memo_keeps_few_bytes_a_request(readings):
    n, memo, _peak, _observed = readings
    assert n == 28_788
    assert memo <= MEMO_BYTES


def test_a_replay_peaks_few_bytes_a_request(readings):
    _n, _memo, peak, observed = readings
    assert peak <= PEAK_BYTES
    assert observed <= OBSERVED_PEAK_BYTES
