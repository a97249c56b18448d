"""Differential harness for the batch engine and chunked replay.

The batch engine's contract is the columnar engine's, transitively the
object core's: :meth:`SimulationResult.to_json` compares equal as *text*
for every supported config — and additionally must be invariant to how
the trace is chunked (chunk boundaries are an execution detail, never a
semantic one). The cold-regime fast path (first-occurrence replay while
no cache has filled) and the deferred recency fixups it batches are the
riskiest machinery, so the matrix here leans on small capacities (early
splits out of the cold regime) and tiny chunk sizes (state carried across
many boundaries).
"""

from __future__ import annotations

import io

import pytest

from repro.fastpath import simulate_batch, simulate_columnar
from repro.fastpath.numeric import load_numpy
from repro.obs.events import RunRecorder
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig

CAPACITY = 1_200_000

SCHEMES = ("adhoc", "ea")
ARCHITECTURES = ("distributed", "hierarchical")
POLICIES = ("lru", "lfu")

#: Chunk sizes covering the degenerate ends: one record per chunk, a
#: boundary-heavy small size, a mid size, and one larger than any trace.
CHUNK_SIZES = (1, 7, 250, 10_000_000)


def three_engines(config: SimulationConfig, trace) -> str:
    """Assert object, columnar and batch serialise identically; return it."""
    expected = CooperativeSimulator(config).run(trace).to_json()
    assert simulate_columnar(config, trace).to_json() == expected
    assert simulate_batch(config, trace).to_json() == expected
    return expected


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_full_matrix_on_all_traces(scheme, architecture, policy, all_traces):
    """Scheme x architecture x policy, all three engines, all traces."""
    config = SimulationConfig(
        scheme=scheme,
        architecture=architecture,
        policy=policy,
        num_caches=4,
        aggregate_capacity=CAPACITY,
    )
    for _, trace in all_traces:
        three_engines(config, trace)


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_chunking_invariance(chunk_size, bu_style_trace):
    """Chunked batch replay is byte-identical to unchunked, per chunk size."""
    config = SimulationConfig(
        scheme="ea", num_caches=4, aggregate_capacity=CAPACITY
    )
    expected = simulate_batch(config, bu_style_trace).to_json()
    got = simulate_batch(config, bu_style_trace, chunk_size=chunk_size).to_json()
    assert got == expected


@pytest.mark.parametrize("window_mode", ("cumulative", "count", "time"))
def test_expiration_windows_span_chunk_boundaries(window_mode, churn_trace):
    """Ring-window state (ages, sums) must carry across chunk edges.

    The churn trace evicts constantly, so expiration ages change all the
    way through the replay — any window state dropped at a boundary
    diverges the EA decisions immediately.
    """
    config = SimulationConfig(
        scheme="ea",
        num_caches=4,
        aggregate_capacity=600_000,
        window_mode=window_mode,
    )
    expected = three_engines(config, churn_trace)
    for chunk_size in (13, 499):
        assert (
            simulate_batch(config, churn_trace, chunk_size=chunk_size).to_json()
            == expected
        )


@pytest.mark.parametrize(
    "field, value",
    [
        ("tie_break", "responder"),
        ("max_replica_fraction", 0.5),
        ("partitioner", "round-robin-client"),
        ("partitioner", "round-robin-request"),
        ("window_size", 16),
    ],
)
def test_config_variants_with_chunking(field, value, bu_style_trace):
    """Config knobs that steer the cold regime / fallback, chunked."""
    config = SimulationConfig(
        scheme="ea",
        num_caches=4,
        aggregate_capacity=CAPACITY,
        **{field: value},
    )
    expected = three_engines(config, bu_style_trace)
    assert (
        simulate_batch(config, bu_style_trace, chunk_size=97).to_json() == expected
    )


def test_cold_regime_never_splits(uniform_trace):
    """A capacity far above the workload keeps the whole replay cold."""
    config = SimulationConfig(
        scheme="ea", num_caches=4, aggregate_capacity=1 << 33
    )
    expected = three_engines(config, uniform_trace)
    for chunk_size in (1, 64):
        assert (
            simulate_batch(config, uniform_trace, chunk_size=chunk_size).to_json()
            == expected
        )


def test_adhoc_cold_regime(uniform_trace):
    """Ad-hoc placement touches recency on remote hits even while cold."""
    config = SimulationConfig(
        scheme="adhoc", num_caches=4, aggregate_capacity=1 << 33
    )
    expected = three_engines(config, uniform_trace)
    assert (
        simulate_batch(config, uniform_trace, chunk_size=33).to_json() == expected
    )


def test_no_numpy_fallback_is_identical(monkeypatch, bu_style_trace):
    """Without numpy there is no fast loop: the dispatch row says so, the
    columnar core replays, and results match the numpy run."""
    from repro.fastpath import batch_fastloop_reason

    config = SimulationConfig(
        scheme="ea", num_caches=4, aggregate_capacity=CAPACITY
    )
    expected = simulate_batch(config, bu_style_trace).to_json()
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    reason = batch_fastloop_reason(config)
    assert reason is not None and "numpy" in reason
    regimes: dict = {}
    assert (
        simulate_batch(config, bu_style_trace, regimes=regimes).to_json()
        == expected
    )
    assert regimes == {"fallback_reason": reason}
    assert (
        simulate_batch(config, bu_style_trace, chunk_size=250).to_json() == expected
    )
    # The observer's row still wins, so its reason is platform-stable.
    ticking = RunRecorder(io.StringIO(), 600.0)
    assert "snapshots" in batch_fastloop_reason(config, ticking)


def test_childless_parents(uniform_trace):
    """The batch twin of the columnar case: more parents than leaves, so
    childless parents take client requests and fetch from the origin,
    while the leaves with a parent escalate (the post-pass must count a
    hop only for those), whole and chunked."""
    config = SimulationConfig(
        architecture="hierarchical",
        num_caches=2,
        num_parents=3,
        aggregate_capacity=CAPACITY,
    )
    expected = three_engines(config, uniform_trace)
    for chunk_size in (1, 97):
        assert (
            simulate_batch(config, uniform_trace, chunk_size=chunk_size).to_json()
            == expected
        )


@pytest.mark.parametrize(
    "architecture, policy",
    [("hierarchical", "lru"), ("distributed", "lfu"), ("hierarchical", "lfu")],
)
def test_hierarchy_and_lfu_run_the_vector_regimes(architecture, policy, bu_style_trace):
    """Neither a hierarchy nor LFU turns the vector regimes off: the
    precompute's runs carry resident hits, and only the cold regime's own
    latch is off."""
    config = SimulationConfig(
        scheme="ea",
        architecture=architecture,
        policy=policy,
        num_caches=4,
        aggregate_capacity=CAPACITY,
    )
    regimes: dict = {}
    got = simulate_batch(config, bu_style_trace, regimes=regimes).to_json()
    assert got == CooperativeSimulator(config).run(bu_style_trace).to_json()
    if load_numpy() is None:
        assert "numpy" in regimes["fallback_reason"]
        return
    assert "fallback_reason" not in regimes
    assert regimes["hit_run"] > 0 and regimes["cold"] == 0
    assert regimes["hit_run"] + regimes["scalar"] == len(bu_style_trace)


def test_run_simulation_dispatches_to_batch(bu_style_trace):
    """engine='batch' routes through the dispatcher byte-identically."""
    from repro.simulation.simulator import run_simulation

    config = SimulationConfig(
        scheme="ea", num_caches=4, aggregate_capacity=CAPACITY, engine="batch"
    )
    direct = simulate_batch(config, bu_style_trace).to_json()
    assert run_simulation(config, bu_style_trace).to_json() == direct
    assert (
        run_simulation(config, bu_style_trace, chunk_size=128).to_json() == direct
    )
