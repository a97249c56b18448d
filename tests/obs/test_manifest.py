"""Run-manifest provenance records and their memo-store sidecars."""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    config_hash,
    file_digest,
    result_digest,
    write_manifest,
)
from repro.obs.session import run_observed
from repro.parallel import SweepMemoStore
from repro.simulation.simulator import SimulationConfig, run_simulation

CONFIG = SimulationConfig(scheme="ea", aggregate_capacity=700_000)


class TestConfigHash:
    def test_stable(self):
        assert config_hash(CONFIG) == config_hash(CONFIG)

    def test_engine_field_excluded(self):
        """Engine selects an execution strategy with byte-identical output,
        so it must not perturb the hash the run header carries."""
        object_cfg = SimulationConfig(scheme="ea", engine="object")
        columnar_cfg = SimulationConfig(scheme="ea", engine="columnar")
        assert config_hash(object_cfg) == config_hash(columnar_cfg)

    def test_simulation_semantics_included(self):
        assert config_hash(CONFIG) != config_hash(CONFIG.with_scheme("adhoc"))
        assert config_hash(SimulationConfig(seed=1)) != config_hash(SimulationConfig(seed=2))


class TestDigests:
    def test_result_digest_is_sha256_of_json(self, obs_trace):
        """Digest hashes the compact serialisation (whitespace-free)."""
        result = run_simulation(CONFIG, obs_trace)
        expected = hashlib.sha256(
            result.to_json(indent=None).encode("utf-8")
        ).hexdigest()
        assert result_digest(result) == expected
        # Whitespace aside, compact and pretty forms carry one identity.
        assert json.loads(result.to_json(indent=None)) == json.loads(result.to_json())

    def test_file_digest_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"x" * 100_000)
        assert file_digest(str(path)) == hashlib.sha256(b"x" * 100_000).hexdigest()


class TestBuildManifest:
    def test_without_events(self, obs_trace):
        result = run_simulation(CONFIG, obs_trace)
        manifest = build_manifest(
            CONFIG, obs_trace.fingerprint(),
            engine_requested="object", engine_resolved="object",
            wall_time_s=0.5, result=result,
        )
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["events"] is None
        assert manifest["config"] == config_hash(CONFIG)
        assert manifest["trace"] == obs_trace.fingerprint()
        assert manifest["seed"] == CONFIG.seed
        assert manifest["result_sha256"] == result_digest(result)

    def test_with_events_counts_and_digest(self, obs_trace, tmp_path):
        events = tmp_path / "run.jsonl"
        result = run_observed(CONFIG, obs_trace, events_path=str(events))
        block = result.manifest["events"]
        assert block["path"] == str(events)
        assert block["sha256"] == file_digest(str(events))
        assert block["lines"] == sum(block["counts"].values())
        assert block["lines"] == len(events.read_text(encoding="utf-8").splitlines())
        assert list(block["counts"]) == sorted(block["counts"])

    def test_engine_requested_vs_resolved(self, obs_trace):
        columnar = SimulationConfig(scheme="ea", aggregate_capacity=700_000, engine="columnar")
        result = run_observed(columnar, obs_trace)
        assert result.manifest["engine_requested"] == "columnar"
        assert result.manifest["engine_resolved"] == "columnar"

    def test_fastloop_reason_records_the_loop_that_ran(
        self, obs_trace, tmp_path, monkeypatch
    ):
        """null when the batch fast loop ran (and for the other engines);
        otherwise the string batch_fastloop_reason returned."""
        from repro.fastpath import batch_fastloop_reason
        from repro.fastpath.numeric import load_numpy
        from repro.obs.schema import validate_manifest

        batch = SimulationConfig(scheme="ea", aggregate_capacity=700_000, engine="batch")
        plain = run_observed(batch, obs_trace).manifest
        assert plain["fastloop_reason"] == batch_fastloop_reason(batch)
        if load_numpy() is not None:
            assert plain["fastloop_reason"] is None
        with_events = run_observed(
            batch, obs_trace, events_path=str(tmp_path / "run.jsonl")
        ).manifest
        # An event stream alone leaves the vector regimes on; snapshots
        # turn them off.
        assert with_events["fastloop_reason"] == plain["fastloop_reason"]
        ticking = run_observed(
            batch, obs_trace, events_path=str(tmp_path / "tick.jsonl"), snapshot_interval=300.0
        ).manifest
        assert "observer" in ticking["fastloop_reason"]
        assert run_observed(CONFIG, obs_trace).manifest["fastloop_reason"] is None
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        no_numpy = run_observed(batch, obs_trace).manifest
        assert "numpy" in no_numpy["fastloop_reason"]
        for manifest in (plain, with_events, ticking, no_numpy):
            assert validate_manifest(manifest) == []

    def test_manifest_excluded_from_result_serialisation(self, obs_trace):
        """The manifest rides along as a side channel: wall time is
        non-deterministic, so it must never leak into to_json."""
        plain = run_simulation(CONFIG, obs_trace)
        observed = run_observed(CONFIG, obs_trace)
        assert observed.manifest is not None
        assert observed.to_json() == plain.to_json()
        assert "manifest" not in json.loads(observed.to_json())

    def test_write_manifest_round_trips(self, obs_trace, tmp_path):
        result = run_observed(CONFIG, obs_trace)
        path = tmp_path / "manifest.json"
        write_manifest(result.manifest, str(path))
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text) == result.manifest
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        """An unserialisable value used to stop json.dump mid-file; a failed
        rename must not leave its temp file either."""
        path = tmp_path / "manifest.json"
        write_manifest({"schema": MANIFEST_SCHEMA}, str(path))
        before = path.read_text(encoding="utf-8")
        with pytest.raises(TypeError):
            write_manifest({"schema": MANIFEST_SCHEMA, "bad": object()}, str(path))

        def full_disk(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError, match="no space"):
            write_manifest({"schema": MANIFEST_SCHEMA, "n": 1}, str(path))
        assert path.read_text(encoding="utf-8") == before
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


class TestMemoSidecars:
    def test_put_writes_manifest_sidecar(self, obs_trace, tmp_path):
        result = run_observed(CONFIG, obs_trace)
        memo = SweepMemoStore(tmp_path)
        memo.put(CONFIG, obs_trace, result)
        sidecar = memo.manifest_path(CONFIG, obs_trace)
        assert sidecar.exists()
        assert json.loads(sidecar.read_text(encoding="utf-8")) == result.manifest

    def test_put_without_manifest_writes_no_sidecar(self, obs_trace, tmp_path):
        memo = SweepMemoStore(tmp_path)
        memo.put(CONFIG, obs_trace, run_simulation(CONFIG, obs_trace))
        assert not memo.manifest_path(CONFIG, obs_trace).exists()

    def test_sidecars_do_not_pollute_keys_or_len(self, obs_trace, tmp_path):
        memo = SweepMemoStore(tmp_path)
        memo.put(CONFIG, obs_trace, run_observed(CONFIG, obs_trace))
        assert len(memo) == 1
        assert memo.store.keys() == [memo.key(CONFIG, obs_trace)]
        fresh = SweepMemoStore(tmp_path)
        loaded = fresh.get(CONFIG, obs_trace)
        assert loaded is not None and loaded.to_json() is not None
