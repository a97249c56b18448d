"""Boundary-value differential tests for the explicit int64 accumulators.

The batch engine's cumulative-sum sites (`off = np.cumsum(lens)` over
per-group run lengths, the cold-regime capacity scan over record sizes,
and the group-id scan over a boolean first-occurrence mask) all scale
with trace length or byte volume. numpy promotes bool and narrow integer
inputs only to the *platform default* integer — 32-bit on Windows — so
every such site spells ``dtype=np.int64`` explicitly. These tests drive
record sizes whose running totals cross 2**31 and assert the three
engines still serialise byte-identically: on a 64-bit platform the
explicit dtype is a no-op by construction (so this differential can
never mask a real difference), and on a 32-bit default-int platform it
is the fix.
"""

from __future__ import annotations

from repro.fastpath import simulate_batch, simulate_columnar
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig
from repro.trace import Trace
from repro.trace.record import TraceRecord

#: Per-record size chosen so a handful of records crosses 2**31 bytes:
#: the int32 boundary lands inside the trace, not past it.
GIANT = (1 << 31) // 3 + 12_345


def giant_trace() -> Trace:
    """Few documents, huge sizes: cumulative byte totals pass 2**31.

    Re-requests are interleaved so the replay leaves the cold regime
    (the capacity scan and the recency fixups both run) while the
    first-occurrence prefix alone already overflows int32.
    """
    docs = [f"http://giant.example/{i}" for i in range(8)]
    order = [0, 1, 2, 0, 3, 4, 1, 5, 6, 2, 7, 0, 5, 3, 7, 6, 4, 1]
    records = [
        TraceRecord(
            timestamp=float(i),
            client_id=f"client{i % 3}",
            url=docs[doc],
            size=GIANT + doc,
        )
        for i, doc in enumerate(order)
    ]
    return Trace(records=records)


def test_byte_totals_past_int32_stay_identical():
    """Aggregate capacity and record sizes beyond 2**31, three engines."""
    trace = giant_trace()
    config = SimulationConfig(
        scheme="ea",
        num_caches=4,
        aggregate_capacity=GIANT * 6,  # > 2**32: several giants fit
    )
    expected = CooperativeSimulator(config).run(trace).to_json()
    assert simulate_columnar(config, trace).to_json() == expected
    assert simulate_batch(config, trace).to_json() == expected
    # Chunked replay crosses the boundary mid-chunk and at chunk edges.
    for chunk_size in (1, 5, 100):
        assert simulate_batch(config, trace, chunk_size=chunk_size).to_json() == expected


def test_tiny_capacity_churns_past_int32():
    """Constant eviction while cumulative traffic crosses the boundary."""
    trace = giant_trace()
    config = SimulationConfig(
        scheme="adhoc",
        num_caches=2,
        aggregate_capacity=GIANT * 2 + 1,
    )
    expected = CooperativeSimulator(config).run(trace).to_json()
    assert simulate_columnar(config, trace).to_json() == expected
    assert simulate_batch(config, trace).to_json() == expected
    assert simulate_batch(config, trace, chunk_size=3).to_json() == expected


def test_no_numpy_fallback_matches_past_int32(monkeypatch):
    """The no-numpy replay (columnar core) agrees with numpy across the boundary."""
    trace = giant_trace()
    config = SimulationConfig(
        scheme="ea", num_caches=4, aggregate_capacity=GIANT * 6
    )
    expected = simulate_batch(config, trace).to_json()
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    assert simulate_batch(config, trace).to_json() == expected
