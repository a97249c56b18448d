"""Unit tests for the synthetic BU-like trace generator."""

from __future__ import annotations

import math
import pickle

import pytest

from repro.errors import TraceError
from repro.experiments.sweep import run_capacity_sweep
from repro.fastpath.interning import InternedChunk
from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace import synthetic
from repro.trace.record import Trace
from repro.trace.stats import compute_stats, fit_zipf_alpha
from repro.trace.stream import source_num_records
from repro.trace.synthetic import (
    BULikeTraceGenerator,
    SyntheticTraceConfig,
    ZipfSampler,
    bu_like_config,
    generate_trace,
)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_requests": 0},
            {"num_documents": 0},
            {"num_clients": -1},
            {"zipf_alpha": -0.1},
            {"temporal_locality": 1.5},
            {"zero_size_fraction": -0.01},
            {"mean_interarrival": 0.0},
            {"mean_size": 0},
            {"mean_size": 100, "max_size": 50},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(TraceError):
            SyntheticTraceConfig(**kwargs)

    def test_scaled(self):
        config = SyntheticTraceConfig(num_requests=1000, num_documents=100, num_clients=10)
        scaled = config.scaled(0.1)
        assert scaled.num_requests == 100
        assert scaled.num_documents == 10
        assert scaled.num_clients == 1

    def test_scaled_never_zero(self):
        tiny = SyntheticTraceConfig(num_requests=5, num_documents=5, num_clients=5).scaled(0.01)
        assert tiny.num_requests >= 1
        assert tiny.num_documents >= 1

    def test_scaled_rejects_bad_fraction(self):
        with pytest.raises(TraceError):
            SyntheticTraceConfig().scaled(0.0)
        with pytest.raises(TraceError):
            SyntheticTraceConfig().scaled(1.5)

    def test_bu_like_config_matches_paper_dimensions(self):
        config = bu_like_config()
        assert config.num_requests == 575_775
        assert config.num_documents == 46_830
        assert config.num_clients == 591


class TestZipfSampler:
    def test_rejects_empty_universe(self):
        import random

        with pytest.raises(TraceError):
            ZipfSampler(0, 0.8, random.Random(0))

    def test_samples_in_range(self):
        import random

        sampler = ZipfSampler(50, 0.8, random.Random(3))
        draws = [sampler.sample() for _ in range(2000)]
        assert min(draws) >= 0
        assert max(draws) < 50

    def test_rank_zero_is_most_popular(self):
        import random

        sampler = ZipfSampler(100, 1.0, random.Random(5))
        from collections import Counter

        counts = Counter(sampler.sample() for _ in range(20000))
        # Rank 0 must dominate the tail ranks decisively.
        assert counts[0] > counts.get(50, 0) * 5

    def test_alpha_zero_is_uniformish(self):
        import random

        sampler = ZipfSampler(10, 0.0, random.Random(7))
        from collections import Counter

        counts = Counter(sampler.sample() for _ in range(20000))
        assert max(counts.values()) < 2 * min(counts.values())


class TestGenerator:
    def _config(self, **kw):
        defaults = dict(
            num_requests=3000, num_documents=400, num_clients=12, seed=99
        )
        defaults.update(kw)
        return SyntheticTraceConfig(**defaults)

    def test_request_count(self):
        assert len(generate_trace(self._config())) == 3000

    def test_deterministic_for_same_seed(self):
        a = generate_trace(self._config())
        b = generate_trace(self._config())
        assert [r.url for r in a] == [r.url for r in b]
        assert [r.timestamp for r in a] == [r.timestamp for r in b]

    def test_different_seeds_differ(self):
        a = generate_trace(self._config(seed=1))
        b = generate_trace(self._config(seed=2))
        assert [r.url for r in a] != [r.url for r in b]

    def test_timestamps_strictly_increasing(self):
        trace = generate_trace(self._config())
        stamps = [r.timestamp for r in trace]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_unique_documents_bounded_by_universe(self):
        trace = generate_trace(self._config())
        assert trace.unique_urls <= 400

    def test_client_count_bounded(self):
        trace = generate_trace(self._config())
        assert trace.unique_clients <= 12

    def test_popularity_is_skewed(self):
        trace = generate_trace(self._config(num_requests=20000))
        alpha = fit_zipf_alpha(trace)
        assert 0.4 < alpha < 1.6, f"fitted alpha {alpha} outside web-trace range"

    def test_sizes_consistent_per_document(self):
        trace = generate_trace(self._config(zero_size_fraction=0.0))
        sizes = {}
        for record in trace:
            assert record.size > 0
            previous = sizes.setdefault(record.url, record.size)
            assert previous == record.size

    def test_zero_size_fraction_produces_zero_records(self):
        trace = generate_trace(self._config(zero_size_fraction=0.3))
        zeros = sum(1 for r in trace if r.size == 0)
        assert 0.2 < zeros / len(trace) < 0.4

    def test_mean_size_roughly_matches_target(self):
        trace = generate_trace(
            self._config(num_requests=20000, zero_size_fraction=0.0, mean_size=4096)
        )
        stats = compute_stats(trace)
        # Popularity-weighted mean won't match exactly, but must be same
        # order of magnitude.
        assert 1000 < stats.mean_size < 20000

    def test_sizes_capped(self):
        trace = generate_trace(self._config(max_size=10_000, zero_size_fraction=0.0))
        assert max(r.size for r in trace) <= 10_000

    def test_sessions_assigned(self):
        trace = generate_trace(self._config())
        assert all(r.session_id for r in trace)

    def test_session_rolls_over_after_gap(self):
        # Huge interarrival + tiny gap forces a new session per request.
        trace = generate_trace(
            self._config(
                num_requests=50,
                num_clients=1,
                mean_interarrival=1000.0,
                session_gap=1.0,
            )
        )
        sessions = {r.session_id for r in trace}
        # Exponential gaps with mean 1000s rarely dip under the 1s threshold,
        # so nearly every request opens a new session.
        assert len(sessions) >= 45

    def test_temporal_locality_increases_repeats(self):
        low = generate_trace(self._config(temporal_locality=0.0, num_requests=10000))
        high = generate_trace(self._config(temporal_locality=0.8, num_requests=10000))
        assert high.unique_urls < low.unique_urls

    def test_start_time_respected(self):
        trace = generate_trace(self._config(start_time=1000.0))
        assert trace[0].timestamp > 1000.0

    def test_generator_class_equivalent_to_helper(self):
        config = self._config()
        a = BULikeTraceGenerator(config).generate()
        b = generate_trace(config)
        assert [r.url for r in a] == [r.url for r in b]


INTERNED_FIELDS = (
    "doc_ids", "sizes", "timestamps", "clients", "new_urls", "new_client_names",
    "new_url_lens", "new_icp_probe_bytes", "num_records",
    # What makes the chunk a whole trace: every base 0, and a memo.
    "base_docs", "base_clients", "base_records", "memo",
)

TWO_VIEW_CONFIGS = [
    make(seed)
    for seed in (42, 1337)
    for make in (
        lambda seed: SyntheticTraceConfig(seed=seed, num_requests=6_000),
        lambda seed: bu_like_config(seed).scaled(0.01),
        lambda seed: SyntheticTraceConfig(seed=seed, num_requests=3_000, zero_size_fraction=0.0),
        lambda seed: SyntheticTraceConfig(seed=seed, num_requests=3_000, zero_size_fraction=0.3),
        lambda seed: SyntheticTraceConfig(seed=seed, num_requests=3_000, num_clients=1),
        # Fewer requests than one block of the streaming record view.
        lambda seed: SyntheticTraceConfig(seed=seed, num_requests=100),
    )
]


def assert_same_interned(got, wanted):
    for name in INTERNED_FIELDS:
        assert getattr(got, name) == getattr(wanted, name), name


class TestTwoViews:
    """``generate_trace`` draws columns; the record list is built on demand."""

    @pytest.mark.parametrize("records_first", (True, False))
    @pytest.mark.parametrize("config", TWO_VIEW_CONFIGS)
    def test_both_views_equal_the_streamed_record_view(self, config, records_first):
        wanted = list(BULikeTraceGenerator(config).iter_records())
        trace = generate_trace(config)
        if records_first:
            assert trace.records == wanted
        assert_same_interned(trace.interned(), InternedChunk.from_records(wanted))
        assert trace.records == wanted
        assert len(trace) == trace.num_records == config.num_requests

    def test_trace_semantics_after_materialisation(self):
        config = SyntheticTraceConfig(seed=7, num_requests=500)
        trace = generate_trace(config)
        reader_built = Trace(list(BULikeTraceGenerator(config).iter_records()))
        assert trace == reader_built and not trace != reader_built
        assert trace != generate_trace(SyntheticTraceConfig(seed=8, num_requests=500))
        assert trace != reader_built.records  # a Trace equals only a Trace
        assert isinstance(trace[10:20], Trace) and trace[10:20] == reader_built[10:20]
        assert trace.head(5) == reader_built.head(5)
        assert trace[3] is trace.records[3] and list(trace) == trace.records
        for name in ("unique_urls", "unique_clients", "total_bytes", "duration"):
            assert getattr(trace, name) == getattr(reader_built, name)
        assert repr(trace.head(1)) == f"Trace(records=[{trace[0]!r}])"
        with pytest.raises(TypeError):
            hash(trace)

    def test_fingerprint_comes_from_the_deferred_records(self):
        # One of the pins of tests/trace/test_stream.py::test_draw_order_is_pinned.
        trace = generate_trace(bu_like_config(1337).scaled(0.01))
        trace.interned()
        assert trace.fingerprint() == (
            "118da1db8c2004d2a28d4780a897433005668e43927c2c1f87360ab9293c376e"
        )

    def test_the_kept_draw_is_released_once_records_exist(self):
        trace = generate_trace(SyntheticTraceConfig(num_requests=200))
        assert trace._records is None and trace._build_records is not None
        records = trace.records
        assert trace._build_records is None and trace.records is records

    def test_unmaterialised_trace_pickles(self):
        config = SyntheticTraceConfig(seed=5, num_requests=2_000)
        simulation = SimulationConfig(scheme="ea", aggregate_capacity=1 << 20, engine="batch")
        trace = generate_trace(config)
        clone = pickle.loads(pickle.dumps(trace))
        assert clone._records is None
        assert (
            run_simulation(simulation, clone).to_json()
            == run_simulation(simulation, trace).to_json()
        )
        assert clone.records == list(BULikeTraceGenerator(config).iter_records())
        assert pickle.loads(pickle.dumps(clone)) == trace

    def test_reader_built_trace_is_unchanged(self):
        records = list(BULikeTraceGenerator(SyntheticTraceConfig(num_requests=50)).iter_records())
        trace = Trace(records)
        assert trace.records == records and trace.records is not records
        assert Trace(records=records) == trace and Trace() == Trace([])
        with pytest.raises(TraceError, match="not monotone at index 1"):
            Trace(records[::-1])


class TestRecordsStayUnbuilt:
    """No fast-engine path may build (or count) the record list."""

    @pytest.fixture
    def trace(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a record-level view was built")

        monkeypatch.setattr(BULikeTraceGenerator, "records_of", refuse)
        monkeypatch.setattr(synthetic, "TraceRecord", refuse)
        monkeypatch.setattr(InternedChunk, "from_records", refuse)
        return generate_trace(bu_like_config().scaled(0.005))

    def test_counts_and_columns(self, trace):
        assert source_num_records(trace) == len(trace) == trace.num_records == 2_878
        assert trace.interned() is trace.interned()
        assert sum(chunk.num_records for chunk in trace.interned_chunks(1_000)) == 2_878
        with pytest.raises(AssertionError, match="record-level view"):
            trace.records

    @pytest.mark.parametrize("engine", ("batch", "columnar"))
    def test_fast_engines_and_a_serial_sweep(self, trace, engine):
        result = run_simulation(SimulationConfig(engine=engine), trace)
        assert result.metrics.requests == 2_878
        sweep = run_capacity_sweep(trace, [("1MB", 1 << 20)], engine=engine)
        assert len(sweep.points) == 2
