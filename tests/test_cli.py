"""Tests for the command-line interface."""

from __future__ import annotations

import functools
import inspect
import json
import re

import pytest

from repro.cli import main, parse_size
from repro.experiments import EXPERIMENTS, ExperimentReport


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("100KB", 100 * 1024),
            ("10mb", 10 * 1024 ** 2),
            ("1GB", 1024 ** 3),
            ("1.5kb", 1536),
            ("4096", 4096),
            ("512B", 512),
        ],
    )
    def test_sizes(self, text, expected):
        assert parse_size(text) == expected

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_size("plenty")


class TestGenerateTrace:
    def test_writes_bu_file(self, tmp_path, capsys):
        out = tmp_path / "trace.bu"
        code = main(["generate-trace", "--scale", "tiny", "--out", str(out), "--seed", "3"])
        assert code == 0
        assert out.exists()
        assert "wrote 8000 records" in capsys.readouterr().out


class TestSimulate:
    def test_synthetic_summary(self, capsys):
        code = main([
            "simulate", "--scheme", "ea", "--caches", "2",
            "--capacity", "256KB", "--scale", "tiny",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "scheme=ea" in out
        assert "hit_rate=" in out

    def test_json_output(self, capsys):
        code = main([
            "simulate", "--capacity", "256KB", "--scale", "tiny", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["requests"] == 8000

    def test_trace_file_input(self, tmp_path, capsys):
        out = tmp_path / "t.bu"
        main(["generate-trace", "--scale", "tiny", "--out", str(out)])
        capsys.readouterr()
        code = main([
            "simulate", "--trace", str(out), "--capacity", "256KB",
        ])
        assert code == 0
        assert "requests=8000" in capsys.readouterr().out

    def test_missing_trace_file_is_clean_error(self, capsys):
        # A nonexistent path surfaces as OSError from open(); argparse-level
        # usage errors exit(2). Here we exercise the ReproError path with a
        # malformed trace instead.
        pass


class TestEngineFlag:
    """--engine columnar must change throughput only, never output."""

    def test_simulate_engines_byte_identical(self, capsys):
        argv = ["simulate", "--capacity", "256KB", "--scale", "tiny", "--json"]
        assert main(argv + ["--engine", "object"]) == 0
        obj = capsys.readouterr().out
        assert main(argv + ["--engine", "columnar"]) == 0
        col = capsys.readouterr().out
        obj_payload, col_payload = json.loads(obj), json.loads(col)
        assert col_payload["config"]["engine"] == "columnar"
        col_payload["config"]["engine"] = "object"
        assert col_payload == obj_payload

    def test_sweep_engines_byte_identical(self, capsys):
        argv = [
            "sweep", "--scale", "tiny", "--capacity", "64KB",
            "--jobs", "1", "--json",
        ]
        assert main(argv) == 0
        obj = json.loads(capsys.readouterr().out)
        assert main(argv + ["--engine", "columnar"]) == 0
        col = json.loads(capsys.readouterr().out)
        for obj_point, col_point in zip(obj, col):
            assert col_point["result"]["config"]["engine"] == "columnar"
            col_point["result"]["config"]["engine"] = "object"
        assert col == obj

    def test_experiment_engine_matches_default(self, capsys):
        assert main(["experiment", "fig1", "--scale", "tiny"]) == 0
        default = capsys.readouterr().out
        argv = ["experiment", "fig1", "--scale", "tiny", "--engine", "columnar"]
        assert main(argv) == 0
        columnar = capsys.readouterr().out
        assert columnar == default

    def test_profile_accepts_engine(self, capsys):
        code = main([
            "profile", "--scale", "tiny", "--top", "5", "--engine", "columnar",
        ])
        assert code == 0
        assert "req/s" in capsys.readouterr().out

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--engine", "vectorised"])


class TestExperiment:
    def test_single_experiment_renders(self, capsys):
        code = main(["experiment", "fig1", "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "100KB" in out

    def test_experiment_json(self, capsys):
        code = main(["experiment", "table1", "--scale", "tiny", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "table1"

    def test_unknown_experiment_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestSweepCommand:
    def test_table_output_serial_and_parallel_match(self, tmp_path, capsys):
        argv = [
            "sweep", "--scale", "tiny", "--capacity", "64KB",
            "--capacity", "256KB", "--seed", "3",
        ]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial.replace("jobs=1", "") == parallel.replace("jobs=2", "")
        assert "scheme" in serial and "adhoc" in serial and "ea" in serial

    def test_jobs_zero_means_one_worker_per_cpu(self, monkeypatch, capsys):
        # As on 'experiment': 0 picks default_jobs(), which it used to
        # reject with "jobs must be >= 1".
        monkeypatch.setattr("repro.parallel.default_jobs", lambda: 1)
        argv = ["sweep", "--scale", "tiny", "--capacity", "64KB", "--jobs"]
        assert main(argv + ["0"]) == 0
        zero = capsys.readouterr().out
        assert main(argv + ["1"]) == 0
        assert zero == capsys.readouterr().out
        assert "jobs=1" in zero

    def test_json_output_parses(self, capsys):
        code = main([
            "sweep", "--scale", "tiny", "--capacity", "64KB",
            "--jobs", "1", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["scheme"] for p in payload] == ["adhoc", "ea"]
        assert all("result" in p for p in payload)

    def test_memo_reused_across_invocations(self, tmp_path, capsys):
        argv = [
            "sweep", "--scale", "tiny", "--capacity", "64KB",
            "--jobs", "1", "--memo", str(tmp_path / "memo"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 hit(s), 2 miss(es)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 hit(s), 0 miss(es)" in second
        assert second.split("memo:")[0] == first.split("memo:")[0]


    def test_json_is_byte_identical_memo_cold_and_warm(self, tmp_path, capsys):
        """A memo hit revives its result from the sorted ``to_json`` text;
        the fresh run prints the same bytes."""
        argv = [
            "sweep", "--scale", "tiny", "--engine", "batch", "--capacity", "1MB",
            "--json", "--memo", str(tmp_path / "memo"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        cold_json, cold_memo = cold.split("memo: ")
        warm_json, warm_memo = warm.split("memo: ")
        assert cold_memo.startswith("0 hit(s), 2 miss(es)")
        assert warm_memo.startswith("2 hit(s), 0 miss(es)")
        assert warm_json == cold_json
        assert [point["scheme"] for point in json.loads(cold_json)] == ["adhoc", "ea"]


class TestExperimentParallelFlags:
    def test_jobs_and_memo_accepted(self, tmp_path, capsys):
        argv = [
            "experiment", "fig1", "--scale", "tiny",
            "--jobs", "2", "--memo", str(tmp_path / "memo"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Figure 1" in first
        assert "miss(es)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 miss(es)" in second
        assert second.split("memo:")[0] == first.split("memo:")[0]

    def test_serial_output_unchanged_by_jobs(self, capsys):
        assert main(["experiment", "fig1", "--scale", "tiny"]) == 0
        serial = capsys.readouterr().out
        assert main(["experiment", "fig1", "--scale", "tiny", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial


class TestProfileCommand:
    def test_prints_throughput_and_hot_functions(self, capsys):
        code = main(["profile", "--scale", "tiny", "--top", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "req/s" in out
        assert "cumulative" in out
        assert "run_simulation" in out

    def test_batch_scalar_share_is_attributed(self, capsys):
        """The regime counts come from the engine and the time of the warm
        segment (resident runs plus the scalar lane) from its span."""
        from repro.fastpath.numeric import load_numpy

        if load_numpy() is None:
            pytest.skip("no numpy: the batch engine runs without its vector regimes")
        code = main([
            "profile", "--scale", "tiny", "--engine", "batch",
            "--capacity", "100KB", "--top", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        requests = re.search(r"resident runs ([\d,]+) .* scalar ([\d,]+) ", out)
        assert requests and int(requests.group(2).replace(",", "")) > 0
        warm = re.search(r"^ +warm +([\d.]+)(ms|s) ", out, re.MULTILINE)
        assert warm, out
        assert float(warm.group(1)) > 0.0

    def test_sort_tottime(self, capsys):
        code = main(["profile", "--scale", "tiny", "--top", "3", "--sort", "tottime"])
        assert code == 0
        assert "tottime" in capsys.readouterr().out


def _stub_driver(driver, seen):
    """A driver with ``driver``'s signature that records its kwargs."""

    @functools.wraps(driver)
    def stub(**kwargs):
        seen.update(kwargs)
        return ExperimentReport(experiment_id="stub", title="stub", headers=["x"])

    return stub


class TestExperimentEngineNote:
    """``--engine`` reaches only the drivers that take it; every other
    driver says on stderr that it runs the object core, and stdout is the
    report either way."""

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_driver_without_engine_says_so(self, name, monkeypatch, capsys):
        takes_engine = "engine" in inspect.signature(EXPERIMENTS[name]).parameters
        seen = {}
        monkeypatch.setitem(EXPERIMENTS, name, _stub_driver(EXPERIMENTS[name], seen))
        assert main(["experiment", name, "--scale", "tiny", "--engine", "batch"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("stub\n")
        if takes_engine:
            assert seen["engine"] == "batch"
            assert captured.err == ""
        else:
            assert "engine" not in seen
            assert captured.err == f"note: {name} takes no --engine; it runs the object core\n"

    def test_object_engine_prints_no_note(self, monkeypatch, capsys):
        for name in list(EXPERIMENTS):
            monkeypatch.setitem(EXPERIMENTS, name, _stub_driver(EXPERIMENTS[name], {}))
        assert main(["experiment", "all", "--scale", "tiny", "--engine", "object"]) == 0
        assert capsys.readouterr().err == ""
