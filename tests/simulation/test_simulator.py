"""Tests for SimulationConfig validation and the trace-driven simulator."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.network.latency import (
    PAPER_LOCAL_HIT_LATENCY,
    PAPER_MISS_LATENCY,
    PAPER_REMOTE_HIT_LATENCY,
)
from repro.obs.manifest import config_hash
from repro.parallel.memo import sweep_memo_key
from repro.simulation.simulator import (
    CooperativeSimulator,
    SimulationConfig,
    run_simulation,
)
from repro.trace.record import Trace, TraceRecord
from repro.trace.synthetic import SyntheticTraceConfig, generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        SyntheticTraceConfig(
            num_requests=3000, num_documents=400, num_clients=16,
            zero_size_fraction=0.05, seed=77,
        )
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"architecture": "mesh"},
            {"partitioner": "by-coinflip"},
            {"window_mode": "forever"},
            {"num_caches": 0},
            {"num_caches": 4.0},
            {"num_caches": True},
            {"num_parents": 1.0},
            {"aggregate_capacity": 0},
            {"architecture": "hierarchical", "num_parents": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(SimulationError):
            SimulationConfig(**kwargs)

    def test_with_scheme(self):
        config = SimulationConfig(scheme="adhoc")
        assert config.with_scheme("ea").scheme == "ea"
        assert config.scheme == "adhoc"

    def test_with_capacity(self):
        assert SimulationConfig().with_capacity(123).aggregate_capacity == 123

    def test_to_dict_roundtrips_fields(self):
        d = SimulationConfig(scheme="ea", num_caches=8).to_dict()
        assert d["scheme"] == "ea"
        assert d["num_caches"] == 8


class TestConfigEcho:
    """The config echo is a format: result JSON, ``config_hash``, memo keys
    and event run headers are all computed from it."""

    #: The echo's keys, in order. Nine of them are retired fields, echoed
    #: at the only value they ever took (``RETIRED``).
    KEYS = [
        "scheme", "num_caches", "aggregate_capacity", "policy",
        "architecture", "num_parents", "partitioner", "responder_strategy",
        "tie_break", "max_replica_fraction", "window_mode", "window_size",
        "window_seconds", "latency", "latency_sigma", "icp_loss_rate",
        "patch_size", "seed", "keep_outcomes", "use_engine",
        "warmup_requests", "collect_histogram", "timeseries_window",
        "sanitize", "engine",
    ]

    #: The retired fields and their echoed values.
    RETIRED = {
        "responder_strategy": "first",
        "latency": "constant",
        "latency_sigma": 0.25,
        "icp_loss_rate": 0.0,
        "keep_outcomes": False,
        "use_engine": False,
        "warmup_requests": 0,
        "collect_histogram": False,
        "timeseries_window": 0.0,
    }

    def test_keys_and_retired_values(self):
        echo = SimulationConfig().to_dict()
        assert list(echo) == self.KEYS
        assert {key: echo[key] for key in self.RETIRED} == self.RETIRED
        # Types too: the echo's JSON text tells 0.0 from 0 and false from 0.
        for key, value in self.RETIRED.items():
            assert type(echo[key]) is type(value), key

    def test_live_fields_are_the_echo_without_the_retired_keys(self):
        live = [f.name for f in dataclasses.fields(SimulationConfig)]
        assert live == [key for key in self.KEYS if key not in self.RETIRED]
        assert len(live) == 16

    def test_config_hash_pinned(self):
        assert config_hash(SimulationConfig()) == (
            "1dbfebf33c6b4a05f66a66b376285acb993f1148b8264d1112a5a89f6d09f854"
        )

    def test_memo_key_pinned(self):
        tiny = Trace([
            TraceRecord(0.0, "c1", "http://a/1", 100),
            TraceRecord(1.0, "c2", "http://a/2", 0),
            TraceRecord(2.5, "c1", "http://a/1", 100),
        ])
        assert sweep_memo_key(SimulationConfig(), tiny) == (
            "4e489b5cd6652e0da4b39f20e7752cfb9c6a04195de657b88eac80a4f20c7d14"
        )

    def test_retired_values_do_not_follow_the_config(self):
        config = SimulationConfig(
            scheme="adhoc", window_size=7, sanitize=True, engine="batch"
        )
        echo = config.to_dict()
        assert list(echo) == self.KEYS
        assert (echo["window_size"], echo["sanitize"], echo["engine"]) == (7, True, "batch")
        assert {key: echo[key] for key in self.RETIRED} == self.RETIRED

    @pytest.mark.parametrize("keyword", list(RETIRED))
    def test_retired_keywords_rejected(self, keyword):
        with pytest.raises(TypeError):
            SimulationConfig(**{keyword: self.RETIRED[keyword]})


class TestSimulatorRun:
    def test_all_requests_accounted(self, trace):
        result = run_simulation(SimulationConfig(aggregate_capacity=1 << 18, seed=3), trace)
        m = result.metrics
        assert m.requests == len(trace)
        assert m.local_hits + m.remote_hits + m.misses == m.requests

    def test_deterministic(self, trace):
        config = SimulationConfig(aggregate_capacity=1 << 18, seed=3)
        a = run_simulation(config, trace)
        b = run_simulation(config, trace)
        assert a.to_dict() == b.to_dict()

    def test_zero_sizes_patched(self, trace):
        # The fixture trace contains zero-size records; the simulator must
        # patch them rather than crash.
        result = run_simulation(SimulationConfig(aggregate_capacity=1 << 18), trace)
        assert result.metrics.bytes_requested > 0

    def test_hierarchical_architecture_runs(self, trace):
        config = SimulationConfig(
            architecture="hierarchical", num_caches=4, num_parents=1,
            aggregate_capacity=1 << 18,
        )
        result = run_simulation(config, trace)
        assert result.metrics.requests == len(trace)
        # 4 leaves + 1 parent.
        assert len(result.cache_stats) == 5

    def test_hierarchical_clients_only_at_leaves(self, trace):
        config = SimulationConfig(
            architecture="hierarchical", num_caches=4, num_parents=1,
            aggregate_capacity=1 << 18,
        )
        sim = CooperativeSimulator(config)
        sim.run(trace)
        parent = sim.group.caches[0]
        assert parent.stats.lookups == 0  # no client requests at the parent

    def test_partitioner_spreads_requests(self, trace):
        sim = CooperativeSimulator(
            SimulationConfig(aggregate_capacity=1 << 18, num_caches=4)
        )
        sim.run(trace)
        lookups = [c.stats.lookups for c in sim.group.caches]
        assert sum(lookups) == len(trace)
        assert all(count > 0 for count in lookups)

    def test_measured_latency_is_the_paper_constants(self, trace):
        """Every request costs its class's measured constant (LHL, RHL,
        ML), so the mean is their request-weighted average."""
        m = run_simulation(SimulationConfig(aggregate_capacity=1 << 18), trace).metrics
        expected = (
            m.local_hits * PAPER_LOCAL_HIT_LATENCY
            + m.remote_hits * PAPER_REMOTE_HIT_LATENCY
            + m.misses * PAPER_MISS_LATENCY
        ) / m.requests
        assert m.mean_measured_latency == pytest.approx(expected, rel=1e-12)


class TestResultContents:
    def test_result_summary_renders(self, trace):
        result = run_simulation(SimulationConfig(aggregate_capacity=1 << 18), trace)
        text = result.summary()
        assert "hit_rate=" in text
        assert "scheme=" in text

    def test_result_json_serialisable(self, trace):
        import json

        result = run_simulation(SimulationConfig(aggregate_capacity=1 << 30), trace)
        payload = json.loads(result.to_json())
        # Huge cache: no evictions -> infinite age encoded as "inf".
        assert payload["avg_cache_expiration_age"] == "inf"
        assert payload["metrics"]["requests"] == len(trace)

    def test_replication_fields_consistent(self, trace):
        result = run_simulation(SimulationConfig(aggregate_capacity=1 << 18), trace)
        assert result.total_copies >= result.unique_documents
        if result.unique_documents:
            assert result.replication_factor == pytest.approx(
                result.total_copies / result.unique_documents
            )

    def test_message_counters_nonzero(self, trace):
        result = run_simulation(SimulationConfig(aggregate_capacity=1 << 18), trace)
        assert result.message_counters.icp_queries > 0
        assert result.message_counters.http_responses > 0


class TestEmptyAndTinyTraces:
    def test_empty_trace(self):
        result = run_simulation(SimulationConfig(aggregate_capacity=1 << 18), Trace([]))
        assert result.metrics.requests == 0
        assert result.estimated_latency == 0.0

    def test_single_record(self):
        trace = Trace(
            [TraceRecord(timestamp=0.0, client_id="c", url="http://x/a", size=100)]
        )
        result = run_simulation(SimulationConfig(aggregate_capacity=1 << 18), trace)
        assert result.metrics.misses == 1
