"""Content-address derivation and memo store behaviour."""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.errors import ExperimentError
from repro.experiments.store import SimulationResultStore
from repro.parallel import SweepMemoStore, sweep_memo_key
from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace.synthetic import SyntheticTraceConfig, generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        SyntheticTraceConfig(num_requests=600, num_documents=90, num_clients=5, seed=21)
    )


@pytest.fixture(scope="module")
def other_trace():
    return generate_trace(
        SyntheticTraceConfig(num_requests=600, num_documents=90, num_clients=5, seed=22)
    )


class TestSweepMemoKey:
    def test_stable_across_calls(self, trace):
        config = SimulationConfig()
        assert sweep_memo_key(config, trace) == sweep_memo_key(config, trace)

    def test_is_hex_digest(self, trace):
        key = sweep_memo_key(SimulationConfig(), trace)
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)

    def test_any_config_field_changes_key(self, trace):
        base = SimulationConfig()
        assert sweep_memo_key(base, trace) != sweep_memo_key(base.with_scheme("adhoc"), trace)
        assert sweep_memo_key(base, trace) != sweep_memo_key(base.with_capacity(123456), trace)

    def test_trace_content_changes_key(self, trace, other_trace):
        config = SimulationConfig()
        assert sweep_memo_key(config, trace) != sweep_memo_key(config, other_trace)

    def test_engine_does_not_change_key(self, trace):
        # Every engine produces the same bytes, so one entry serves all.
        base = SimulationConfig()
        keys = {
            sweep_memo_key(dataclasses.replace(base, engine=engine), trace)
            for engine in ("object", "columnar", "batch")
        }
        assert len(keys) == 1


class TestSweepMemoStore:
    def test_put_then_get_round_trips_exactly(self, trace, tmp_path):
        config = SimulationConfig(aggregate_capacity=1 << 17)
        result = run_simulation(config, trace)
        memo = SweepMemoStore(tmp_path)
        memo.put(config, trace, result)
        fresh = SweepMemoStore(tmp_path)  # bypass the hot cache
        loaded = fresh.get(config, trace)
        assert loaded is not None
        assert loaded.to_json() == result.to_json()

    def test_entry_filled_on_batch_serves_object_bytes(self, trace, tmp_path):
        batch = SimulationConfig(aggregate_capacity=1 << 17, engine="batch")
        on_object = dataclasses.replace(batch, engine="object")
        filled = run_simulation(batch, trace)
        SweepMemoStore(tmp_path).put(batch, trace, filled)
        memo = SweepMemoStore(tmp_path)  # read back from disk
        loaded = memo.get(on_object, trace)
        assert (memo.hits, memo.misses) == (1, 0)
        assert loaded.config["engine"] == "object"
        assert loaded.to_json() == run_simulation(on_object, trace).to_json()
        # The hot entry still answers the engine that filled it.
        assert memo.get(batch, trace).to_json() == filled.to_json()

    def test_miss_returns_none_and_counts(self, trace, tmp_path):
        memo = SweepMemoStore(tmp_path)
        assert memo.get(SimulationConfig(), trace) is None
        assert memo.misses == 1 and memo.hits == 0

    def test_len_counts_artifacts(self, trace, tmp_path):
        config = SimulationConfig(aggregate_capacity=1 << 17)
        result = run_simulation(config, trace)
        memo = SweepMemoStore(tmp_path)
        assert len(memo) == 0
        memo.put(config, trace, result)
        memo.put(config.with_scheme("adhoc"), trace, result)
        assert len(memo) == 2

    def test_corrupt_artifact_raises_not_resimulates(self, trace, tmp_path):
        config = SimulationConfig(aggregate_capacity=1 << 17)
        memo = SweepMemoStore(tmp_path)
        memo.put(config, trace, run_simulation(config, trace))
        key = memo.key(config, trace)
        (tmp_path / f"{key}.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ExperimentError, match="corrupt"):
            SweepMemoStore(tmp_path).get(config, trace)


class TestSimulationResultStore:
    def test_invalid_key_rejected(self, tmp_path):
        store = SimulationResultStore(tmp_path)
        for bad in ("", "UPPER", "../escape", "short", "g" * 16):
            with pytest.raises(ExperimentError):
                store.save(bad, None)

    def test_missing_key_loads_none(self, tmp_path):
        assert SimulationResultStore(tmp_path).load("a" * 16) is None

    def test_keys_sorted(self, trace, tmp_path):
        store = SimulationResultStore(tmp_path)
        result = run_simulation(SimulationConfig(aggregate_capacity=1 << 17), trace)
        store.save("ff" * 8, result)
        store.save("aa" * 8, result)
        assert store.keys() == ["aa" * 8, "ff" * 8]

    def test_two_interleaved_saves_of_one_key_both_succeed(
        self, trace, tmp_path, monkeypatch
    ):
        """Two invocations sharing a store land on one key: the rival's
        whole save happens between this one's write and its rename. With a
        temp file named after the key alone the rival renamed *our* temp
        away, and our rename raised FileNotFoundError."""
        store = SimulationResultStore(tmp_path)
        result = run_simulation(SimulationConfig(aggregate_capacity=1 << 17), trace)
        key = "ab" * 8
        pids = iter((111, 222))
        monkeypatch.setattr(os, "getpid", lambda: next(pids))
        real_replace = os.replace
        rival_saved = []

        def replace_after_the_rival(src, dst):
            if not rival_saved:
                rival_saved.append(True)
                store.save(key, result)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_after_the_rival)
        store.save(key, result)
        assert rival_saved and store.load(key).to_json() == result.to_json()
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]
