"""Warm-regime differential tests for the batch engine.

Once a cache has filled, the batch engine keeps exact LRU recency in one
``OrderedDict`` per cache and walks the run-length-compressed requests
in a single pass (``warm_loop``): a run on a resident slot is one
recency touch, any other run sends its members through the scalar
protocol path until an admission sticks. That machinery only engages on
*evicting* workloads, where every EA decision reads live expiration
ages — so these matrices evict. The contracts covered here: resident
runs spanning chunk boundaries (a run cut by a boundary re-enters as a
fresh run), the EA promotion-armed classification — a
promotion-eligible hit is a local miss at the requesting leaf and must
terminate the run — high-churn small-capacity matrices, and obs
event-stream/manifest identity on warm workloads.
"""

from __future__ import annotations

import io

import pytest

from repro.fastpath import simulate_batch, simulate_columnar
from repro.obs.events import RunRecorder
from repro.obs.manifest import config_hash
from repro.simulation.simulator import (
    CooperativeSimulator,
    SimulationConfig,
    run_simulation,
)
from repro.trace import SyntheticTraceConfig, Trace, TraceRecord, generate_trace

from tests.fastpath.test_batch_differential import three_engines

#: Chunk sizes from the satellite contract: degenerate single-record
#: chunks (every run spans a boundary), boundary-heavy small, mid, and
#: one larger than any trace (the unchunked limit).
CHUNK_SIZES = (1, 7, 250, 10_000_000)

SCHEMES = ("adhoc", "ea")
POLICIES = ("lru", "lfu")


@pytest.fixture(scope="module")
def warm_trace() -> Trace:
    """Hit-dominated evicting workload: high Zipf skew over a footprint
    a few times the test capacity, so replay spends most requests in
    resident runs while admissions/evictions keep turning runs over."""
    return generate_trace(
        SyntheticTraceConfig(
            num_requests=6_000,
            num_documents=500,
            num_clients=20,
            zipf_alpha=1.1,
            zero_size_fraction=0.02,
            seed=404,
        )
    )


@pytest.fixture(scope="module")
def promo_trace() -> Trace:
    """Handcrafted EA promotion-heavy trace (round-robin-client leaves).

    ``c1`` parks one document at leaf 1 and never evicts, so leaf 1's
    expiration age stays ``inf``; ``c0`` churns leaf 0 with oversized
    filler documents until its age is finite. Every later ``c0`` request
    for the parked document is then a *remote* hit whose EA comparison
    reads ``inf > finite`` — promotion granted, placement declined — and
    because the document never becomes resident at leaf 0, each of those
    runs stays promotion-armed: the residency classification must send
    every member through the protocol path, mid-run, on every chunking.
    """
    records = []
    t = [0.0]

    def req(client: str, url: str, size: int) -> None:
        t[0] += 10.0
        records.append(
            TraceRecord(timestamp=t[0], client_id=client, url=url, size=size)
        )

    req("c1", "http://park/doc", 10_000)  # resident at leaf 1 forever
    # Churn leaf 0 (per-cache capacity 100 KB): 8 fillers of 40 KB force
    # evictions, giving leaf 0 a finite expiration age.
    for i in range(8):
        req("c0", f"http://fill/{i}", 40_000)
    # Promotion-armed runs: consecutive c0 requests for the parked doc
    # (remote hits, declined placement) interleaved with local hit-runs
    # on the still-resident fillers — the warm scanner sees mixed blocks
    # where the armed runs must terminate bulk classification.
    for round_ in range(6):
        for _ in range(4):
            req("c0", "http://park/doc", 10_000)
        req("c0", f"http://fill/{6 + round_ % 2}", 40_000)
        req("c1", "http://park/doc", 10_000)
    return Trace(records=records)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_warm_matrix(scheme, policy, warm_trace):
    """Scheme x policy on the evicting warm workload, all three engines."""
    config = SimulationConfig(
        scheme=scheme,
        policy=policy,
        num_caches=4,
        aggregate_capacity=1_500_000,
    )
    three_engines(config, warm_trace)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_warm_hit_runs_span_chunk_boundaries(scheme, chunk_size, warm_trace):
    """Chunked warm replay is byte-identical to unchunked per chunk size.

    With ``chunk_size=1`` every hit-run spans a boundary, so the carried
    residency/recency/heap state — and the warm scanner's re-entry at
    ``tail_start`` — is exercised at every record.
    """
    config = SimulationConfig(
        scheme=scheme, num_caches=4, aggregate_capacity=1_500_000
    )
    expected = simulate_batch(config, warm_trace).to_json()
    got = simulate_batch(config, warm_trace, chunk_size=chunk_size).to_json()
    assert got == expected


@pytest.mark.parametrize("capacity", (150_000, 400_000))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_high_churn_small_capacity(scheme, capacity, churn_trace):
    """Starvation capacities: constant eviction, conflict-storm regime."""
    config = SimulationConfig(
        scheme=scheme, num_caches=4, aggregate_capacity=capacity
    )
    three_engines(config, churn_trace)


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_ea_promotion_armed_hit_terminates_run(chunk_size, promo_trace):
    """A promotion-eligible hit mid-run ends bulk classification.

    Byte-identity across chunk sizes 1..10M plus a non-vacuity check:
    the trace really does grant promotions and decline placements, so a
    scanner that ever bulk-applied a promotion-armed run would diverge
    in the decision counters, not just recency.
    """
    config = SimulationConfig(
        scheme="ea",
        num_caches=2,
        aggregate_capacity=200_000,
        partitioner="round-robin-client",
    )
    expected = CooperativeSimulator(config).run(promo_trace)
    granted = sum(s.promotions_granted for s in expected.cache_stats)
    declined = sum(s.placements_declined for s in expected.cache_stats)
    assert granted > 0 and declined > 0
    assert simulate_batch(config, promo_trace).to_json() == expected.to_json()
    assert (
        simulate_batch(config, promo_trace, chunk_size=chunk_size).to_json()
        == expected.to_json()
    )


def test_warm_obs_stream_and_manifest_identity(warm_trace):
    """Event streams and manifest digests match object vs batch, warm.

    An attached observer routes the batch engine onto the event-emitting
    columnar loop by contract; this pins that contract on an *evicting*
    workload — streams equal as text, and the engine-independent
    manifest fields (event counts/sha256, result digest) equal too.
    """
    config = SimulationConfig(
        scheme="ea", num_caches=4, aggregate_capacity=1_500_000
    )

    def observed(engine: str):
        sink = io.StringIO()
        recorder = RunRecorder(sink, 0.0)
        recorder.begin(config_hash(config), warm_trace.fingerprint())
        if engine == "batch":
            result = simulate_batch(config, warm_trace, obs=recorder)
        elif engine == "columnar":
            result = simulate_columnar(config, warm_trace, obs=recorder)
        else:
            result = CooperativeSimulator(config, obs=recorder).run(warm_trace)
        recorder.end()
        return sink.getvalue(), recorder.counts, result

    obj_text, obj_counts, obj_result = observed("object")
    col_text, col_counts, col_result = observed("columnar")
    bat_text, bat_counts, bat_result = observed("batch")
    assert obj_text == col_text == bat_text
    assert obj_counts == col_counts == bat_counts
    assert obj_result.to_json() == col_result.to_json() == bat_result.to_json()


def test_warm_chunked_dispatch_with_regimes(warm_trace):
    """run_simulation(regimes=) surfaces warm coverage on the dispatcher
    path, and the counts are chunking-invariant request tallies."""
    config = SimulationConfig(
        scheme="ea", num_caches=4, aggregate_capacity=1_500_000, engine="batch"
    )
    regimes: dict = {}
    result = run_simulation(config, warm_trace, regimes=regimes)
    from repro.fastpath.numeric import load_numpy

    if load_numpy() is None:
        # No numpy, no fast loop: the columnar core ran and said why.
        assert list(regimes) == ["fallback_reason"]
        assert "numpy" in regimes["fallback_reason"]
        return
    assert sum(regimes.values()) == result.metrics.requests
    assert regimes["scalar"] > 0
    assert regimes["hit_run"] > 0
    chunked: dict = {}
    run_simulation(config, warm_trace, chunk_size=97, regimes=chunked)
    assert sum(chunked.values()) == result.metrics.requests


def test_regime_breakdown_off_scalar_at_paper_capacity():
    """On the default fig1 workload at the 100 MB paper capacity, >=80%
    of requests resolve off the scalar path (cold + hit-run bulk).

    The off-scalar share is bounded above by the local-hit ratio — every
    miss and remote hit is per-request protocol work by definition — so
    at the starvation capacities (100 KB–10 MB) the achievable share is
    the hit ratio itself (11–50%); see PERFORMANCE.md. 100 MB is the
    first paper capacity where the workload's footprint fits, and there
    the engine must keep essentially everything off the scalar path.
    """
    from repro.experiments.workload import workload_trace
    from repro.fastpath.numeric import load_numpy

    if load_numpy() is None:
        pytest.skip("no numpy: the batch engine replays on the columnar core")
    trace = workload_trace()
    config = SimulationConfig(
        scheme="ea", num_caches=4, aggregate_capacity=100 << 20, engine="batch"
    )
    regimes: dict = {}
    result = run_simulation(config, trace, regimes=regimes)
    assert sum(regimes.values()) == result.metrics.requests
    off_scalar = regimes["cold"] + regimes["hit_run"]
    share = off_scalar / result.metrics.requests
    assert share >= 0.80, f"off-scalar share {share:.1%} below the 80% bar"
