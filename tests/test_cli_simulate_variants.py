"""CLI simulate subcommand across architectures, policies, partitioners."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestSimulateVariants:
    def test_hierarchical_architecture(self, capsys):
        code = main([
            "simulate", "--architecture", "hierarchical", "--caches", "2",
            "--capacity", "256KB", "--scale", "tiny",
        ])
        assert code == 0
        assert "hit_rate=" in capsys.readouterr().out

    @pytest.mark.parametrize("policy", ["lfu", "gdsf", "fifo"])
    def test_policies(self, capsys, policy):
        code = main([
            "simulate", "--policy", policy, "--capacity", "256KB",
            "--scale", "tiny", "--caches", "2",
        ])
        assert code == 0

    @pytest.mark.parametrize(
        "partitioner", ["hash", "round-robin-client", "round-robin-request"]
    )
    def test_partitioners(self, capsys, partitioner):
        code = main([
            "simulate", "--partitioner", partitioner, "--capacity", "256KB",
            "--scale", "tiny", "--caches", "2",
        ])
        assert code == 0

    @pytest.mark.parametrize("size", ["0", "-5", "1.5", "many"])
    @pytest.mark.parametrize("command", ["simulate", "pack-trace"])
    def test_chunk_size_zero_is_a_clean_error(self, tmp_path, command, size, capsys):
        # A usage error from the parser: ``simulate --chunk-size 0`` used
        # to be ignored on the object engine and with a packed trace.
        packed = tmp_path / "t.rpct"
        args = ["--out", str(packed)] if command == "pack-trace" else ["--engine", "object"]
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--scale", "tiny", f"--chunk-size={size}", *args])
        assert exit_info.value.code == 2
        assert f"argument --chunk-size: invalid chunk size '{size}'" in capsys.readouterr().err
        assert not packed.exists()

    def test_json_includes_architecture(self, capsys):
        main([
            "simulate", "--architecture", "hierarchical", "--caches", "2",
            "--capacity", "256KB", "--scale", "tiny", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["architecture"] == "hierarchical"
        # 2 leaves + 1 parent.
        assert len(payload["cache_stats"]) == 3

    def test_invalid_capacity_string_rejected(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--capacity", "lots", "--scale", "tiny"])
        assert exit_info.value.code == 2

    def test_adhoc_and_ea_differ_when_contended(self, capsys):
        outputs = {}
        for scheme in ("adhoc", "ea"):
            main([
                "simulate", "--scheme", scheme, "--capacity", "100KB",
                "--scale", "tiny", "--json",
            ])
            outputs[scheme] = json.loads(capsys.readouterr().out)
        assert (
            outputs["ea"]["metrics"]["hit_rate"]
            >= outputs["adhoc"]["metrics"]["hit_rate"]
        )
