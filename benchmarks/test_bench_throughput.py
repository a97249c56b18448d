"""Microbenchmarks for the simulator's hot paths.

Unlike the artifact-regeneration benchmarks (one deterministic round each),
these use pytest-benchmark's normal repeated timing to track the throughput
of the operations that dominate a simulation: cache lookup/admit cycles,
ICP encode/decode, and end-to-end request processing for both schemes.
"""

from __future__ import annotations

import pytest

from repro.cache import Document, LRUPolicy, ProxyCache
from repro.protocol import icp
from repro.simulation import CooperativeSimulator, SimulationConfig
from repro.simulation.simulator import run_simulation
from repro.trace import SyntheticTraceConfig, bu_like_config, generate_trace


@pytest.fixture(scope="module")
def micro_trace():
    return generate_trace(
        SyntheticTraceConfig(
            num_requests=5_000, num_documents=800, num_clients=16, seed=11
        )
    )


def test_bench_cache_lookup_admit_cycle(benchmark):
    """Throughput of the ProxyCache miss-admit-evict loop."""
    documents = [Document(f"http://bench/doc{i}", 4096) for i in range(512)]

    def run_cycle():
        cache = ProxyCache(64 * 4096, policy=LRUPolicy())
        now = 0.0
        for doc in documents:
            now += 1.0
            if cache.lookup(doc.url, now) is None:
                cache.admit(doc, now)
        return cache

    cache = benchmark(run_cycle)
    assert len(cache) == 64


def test_bench_icp_roundtrip(benchmark):
    """ICP encode/decode round-trip cost per datagram."""
    message = icp.query(7, "http://bench.example.com/some/long/path/doc", icp.pack_cache_address(3))

    def roundtrip():
        return icp.decode(icp.encode(message))

    decoded = benchmark(roundtrip)
    assert decoded.url == message.url


@pytest.mark.parametrize("scheme", ["adhoc", "ea"])
def test_bench_simulator_requests_per_second(benchmark, micro_trace, scheme):
    """End-to-end request processing throughput per scheme.

    EA adds two expiration-age reads per remote hit; this benchmark bounds
    the overhead and backs the paper's 'no extra cost' implementation claim.
    """
    config = SimulationConfig(
        scheme=scheme, num_caches=4, aggregate_capacity=1 << 20, seed=5
    )

    def run():
        return CooperativeSimulator(config).run(micro_trace)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.metrics.requests == len(micro_trace)


@pytest.mark.parametrize("scheme", ["adhoc", "ea"])
def test_bench_columnar_requests_per_second(benchmark, micro_trace, scheme):
    """Columnar-engine counterpart of the end-to-end throughput benchmark.

    Same config and trace as ``test_bench_simulator_requests_per_second``
    so the two benchmark families measure the engines head-to-head; the
    per-engine CI regression gate reads both. Interning is paid once up
    front (it is cached on the trace), matching how sweeps amortise it.
    """
    config = SimulationConfig(
        scheme=scheme,
        num_caches=4,
        aggregate_capacity=1 << 20,
        seed=5,
        engine="columnar",
    )
    micro_trace.interned()

    def run():
        return run_simulation(config, micro_trace)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.metrics.requests == len(micro_trace)
    object_result = CooperativeSimulator(config).run(micro_trace)
    assert result.to_json() == object_result.to_json()


def test_bench_columnar_hier_lfu_requests_per_second(benchmark, micro_trace):
    """The replay kernel with its vector regimes off (``engine="columnar"``)
    on hierarchical escalation with LFU replacement (the ``variant_grid``
    workload of ``benchmarks/e2e``), at the capacity of the two entries
    above, where it evicts 1 766 times in 5 000 requests — the admission
    site's victim search, window record and escalation are what this
    entry adds to them.
    """
    config = SimulationConfig(
        scheme="ea",
        architecture="hierarchical",
        policy="lfu",
        num_caches=4,
        aggregate_capacity=1 << 20,
        seed=5,
        engine="columnar",
    )
    micro_trace.interned()

    def run():
        return run_simulation(config, micro_trace)

    result = benchmark.pedantic(run, rounds=7, iterations=1, warmup_rounds=1)
    assert result.metrics.requests == len(micro_trace)
    assert sum(s.evictions for s in result.cache_stats) > 1_000
    object_result = CooperativeSimulator(config).run(micro_trace)
    assert result.to_json() == object_result.to_json()


@pytest.mark.parametrize("scheme", ["adhoc", "ea"])
def test_bench_batch_requests_per_second(benchmark, micro_trace, scheme):
    """Batch-engine counterpart, same config/trace as the other two.

    The micro trace evicts constantly at 1 MB aggregate, so this measures
    the batch engine's *churn* (conflict-storm scalar) regime — the
    cold-regime gain shows up in ``test_bench_batch_speedup_cold`` and
    the warm-regime gain in ``test_bench_batch_speedup_warm``. The CI
    regression gate reads this entry so the batch loop cannot quietly
    regress. Warmup rounds absorb the first-call effects (allocator
    growth, branch warm-up) that made BENCH_7's 3-round batch entries
    show stddev on the order of the mean; the gate compares medians.
    """
    config = SimulationConfig(
        scheme=scheme,
        num_caches=4,
        aggregate_capacity=1 << 20,
        seed=5,
        engine="batch",
    )
    micro_trace.interned()

    def run():
        return run_simulation(config, micro_trace)

    result = benchmark.pedantic(run, rounds=7, iterations=1, warmup_rounds=2)
    assert result.metrics.requests == len(micro_trace)
    object_result = CooperativeSimulator(config).run(micro_trace)
    assert result.to_json() == object_result.to_json()


@pytest.fixture(scope="module")
def cold_trace():
    """Fits-in-cache workload: the batch engine's vectorised cold regime.

    Sized so the whole unique-content footprint fits the benchmark's
    aggregate capacity — no evictions, the regime where the batch engine
    replays first occurrences only and vectorises everything else.
    """
    return generate_trace(
        SyntheticTraceConfig(
            num_requests=150_000,
            num_documents=12_000,
            num_clients=48,
            zipf_alpha=0.9,
            zero_size_fraction=0.02,
            seed=23,
        )
    )


def test_bench_batch_cold_requests_per_second(benchmark, cold_trace):
    """Cold-regime throughput entry for the regression gate."""
    config = SimulationConfig(
        scheme="ea",
        num_caches=4,
        aggregate_capacity=1 << 30,
        seed=5,
        engine="batch",
    )
    cold_trace.interned()
    result = benchmark.pedantic(
        lambda: run_simulation(config, cold_trace),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    assert result.metrics.requests == len(cold_trace)


@pytest.fixture(scope="module")
def packed_cold_trace(tmp_path_factory):
    """The ``packed_replay`` stream of ``benchmarks/e2e`` (gate scale),
    packed once: what the benchmark below reads back each round."""
    from repro.trace.columnar_io import write_packed
    from repro.trace.stream import SyntheticTraceStream

    config = SyntheticTraceConfig(
        num_requests=400_000,
        num_documents=20_000,
        num_clients=256,
        zipf_alpha=0.9,
        zero_size_fraction=0.02,
        seed=42,
    )
    path = str(tmp_path_factory.mktemp("packed") / "cold.rpct")
    write_packed(path, SyntheticTraceStream(config), chunk_size=50_000)
    return path, config.num_requests


def test_bench_packed_cold_requests_per_second(benchmark, packed_cold_trace):
    """Packed-file replay at a capacity that holds everything: ``.rpct``
    decode -> buffer-backed chunks -> numpy columns -> cold regime, with no
    per-request Python object on the way. Requests per second is
    ``400_000 / median``.
    """
    from repro.trace.columnar_io import PackedTraceReader

    path, requests = packed_cold_trace
    config = SimulationConfig(
        scheme="ea", aggregate_capacity=8192 << 20, engine="batch"
    )

    def run():
        regimes: dict = {}
        with PackedTraceReader(path) as reader:
            result = run_simulation(config, reader, regimes=regimes)
        return result, regimes

    result, regimes = benchmark.pedantic(run, rounds=7, iterations=1, warmup_rounds=1)
    assert result.metrics.requests == requests
    assert regimes == {"cold": requests, "hit_run": 0, "scalar": 0}


def test_bench_synthetic_stream_chunks(benchmark):
    """Source throughput of streamed replay: the synthetic stream drawn
    straight into interned chunks (stream shape and chunk size of the
    ``stream_replay`` workload of ``benchmarks/e2e``, a quarter of its
    length). Records per second is ``100_000 / median``.
    """
    from repro.trace.stream import SyntheticTraceStream

    config = SyntheticTraceConfig(
        num_requests=100_000,
        num_documents=20_000,
        num_clients=256,
        zipf_alpha=0.9,
        zero_size_fraction=0.02,
        seed=42,
    )

    def run():
        return sum(
            chunk.num_records
            for chunk in SyntheticTraceStream(config).interned_chunks(50_000)
        )

    records = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    assert records == config.num_requests


def test_bench_generate_trace_interned(benchmark):
    """Set-up of a BU-like job on the fast engines: ``generate_trace``
    drawn straight into the trace's interned view, no record built (the
    trace of ``paper_grid`` / ``variant_grid`` of ``benchmarks/e2e``).
    Records per second is ``115_155 / median``.
    """
    config = bu_like_config().scaled(0.2)

    def run():
        return generate_trace(config).interned()

    interned = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    assert interned.num_records == config.num_requests


@pytest.fixture(scope="module")
def bu_trace():
    """The BU-scale trace (575,775 requests): the ISSUE's warm-regime
    acceptance workload. At 488 MB aggregate the replay *evicts* (the
    unique footprint slightly overflows), so the batch engine runs all
    three regimes: a vectorised cold prefix (94% of the requests), the
    one-off materialisation of the per-cache ``OrderedDict`` LRUs, then
    resident runs and the scalar protocol path around every eviction."""
    return generate_trace(bu_like_config())


#: The warm acceptance point: evicting, but hit-dominated — see bu_trace.
WARM_CAPACITY = 488 << 20


def test_bench_batch_warm_requests_per_second(benchmark, bu_trace):
    """Warm/evicting-regime throughput entry for the regression gate."""
    config = SimulationConfig(
        scheme="ea",
        num_caches=4,
        aggregate_capacity=WARM_CAPACITY,
        seed=5,
        engine="batch",
    )
    bu_trace.interned()
    result = benchmark.pedantic(
        lambda: run_simulation(config, bu_trace),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    assert result.metrics.requests == len(bu_trace)
    assert sum(s.evictions for s in result.cache_stats) > 0


def test_bench_batch_speedup_warm(bu_trace):
    """Batch >= 3x columnar on the BU-scale *evicting* replay. Both
    engines run the one replay kernel, so the ratio is its vector regimes
    (numpy precompute, cold prefix, numpy post-pass) on against off. Same
    shape as ``test_bench_batch_speedup_cold``: best-of-three wall times,
    byte identity asserted alongside the timing, and a non-vacuity check
    that the workload really evicts at this capacity. This is the point
    where the kernel pays most for leaving the cold regime (~45,000
    residents materialised to serve ~4,000 scalar requests): 3.64-3.91x
    over five runs when the kernels merged.
    """
    import time

    from repro.fastpath import simulate_batch, simulate_columnar

    config = SimulationConfig(
        scheme="ea", num_caches=4, aggregate_capacity=WARM_CAPACITY, seed=5
    )
    bu_trace.interned()

    def best_of(engine_fn):
        best, result = float("inf"), None
        for _ in range(3):
            start = time.perf_counter()
            result = engine_fn(config, bu_trace)
            best = min(best, time.perf_counter() - start)
        return best, result

    batch_time, batch_result = best_of(simulate_batch)
    columnar_time, columnar_result = best_of(simulate_columnar)
    assert batch_result.to_json() == columnar_result.to_json()
    assert sum(s.evictions for s in batch_result.cache_stats) > 0
    speedup = columnar_time / batch_time
    print(f"\nbatch warm-regime speedup over columnar: {speedup:.2f}x")
    assert speedup >= 3.0, (
        f"batch engine {speedup:.2f}x over columnar on the evicting "
        f"BU-scale replay; acceptance bar is 3x"
    )


def test_bench_batch_speedup_cold(cold_trace):
    """Batch >= 7x columnar on a fits-in-cache replay: the cold prefix and
    the numpy post-pass against the same kernel walking every request in
    Python (11.2-12.8x over five runs when the kernels merged).
    Best-of-three wall times (noise only ever adds time), same trace, same
    config; byte-identity is asserted alongside the timing.
    """
    import time

    from repro.fastpath import simulate_batch, simulate_columnar

    config = SimulationConfig(
        scheme="ea", num_caches=4, aggregate_capacity=1 << 30, seed=5
    )
    cold_trace.interned()

    def best_of(engine_fn):
        best, result = float("inf"), None
        for _ in range(3):
            start = time.perf_counter()
            result = engine_fn(config, cold_trace)
            best = min(best, time.perf_counter() - start)
        return best, result

    batch_time, batch_result = best_of(simulate_batch)
    columnar_time, columnar_result = best_of(simulate_columnar)
    assert batch_result.to_json() == columnar_result.to_json()
    speedup = columnar_time / batch_time
    print(f"\nbatch cold-regime speedup over columnar: {speedup:.2f}x")
    assert speedup >= 7.0, (
        f"batch engine {speedup:.2f}x over columnar; acceptance bar is 7x"
    )
