"""Output contract of the end-to-end benchmark, at smoke size.

Not part of tier-1 (``testpaths = ["tests"]``); run it with

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ["paper_grid", "stream_replay", "packed_replay", "observed_replay", "variant_grid"]


@pytest.fixture(scope="module")
def definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke_set():
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "smoke_set.json")
    done = subprocess.run(
        RUN + ["run", "--smoke", "--out", path], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
    with open(path, encoding="utf-8") as fh:
        return path, json.load(fh), done.stdout


def test_benchmark_json_meets_the_contract(definitions):
    assert set(definitions) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in definitions["workloads"]] == WORKLOADS
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in definitions["workloads"])
    assert 1 <= len(definitions["end_to_end"]) <= 16
    assert 1 <= len(definitions["per_layer"]) <= 128
    names = [m["name"] for m in definitions["end_to_end"] + definitions["per_layer"]]
    names += WORKLOADS
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for metric in definitions["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in definitions["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in definitions["end_to_end"] + definitions["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in definitions["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in definitions["end_to_end"])
    assert isinstance(definitions["run_seconds"], int) and 1 <= definitions["run_seconds"] <= 60
    assert all(os.path.isdir(os.path.join(ROOT, path)) for path in definitions["paths"])


def test_every_workload_reports_every_metric(smoke_set, definitions):
    _, result, printed = smoke_set
    assert list(result["workloads"]) == WORKLOADS
    for name, entry in result["workloads"].items():
        for metric in definitions["end_to_end"]:
            cell = entry["end_to_end"][metric["name"]]
            assert cell["unit"] == metric["unit"] and cell["median"] > 0, (name, metric["name"])
            assert metric["name"] in printed
        assert set(entry["per_layer"]) == {m["name"] for m in definitions["per_layer"]}
        assert entry["attempted"] >= 1 and entry["failed_share"] == 0
    assert result["probes"]["failed"] == 0
    assert set(result["calibration"]["start"]) == set(result["calibration"]["end"])
    assert isinstance(result["calibration"]["noisy"], bool)


def test_layers_keep_their_roles(smoke_set):
    _, result, _ = smoke_set
    layers = {name: entry["per_layer"] for name, entry in result["workloads"].items()}

    def value(workload, metric):
        return layers[workload][metric]["value"]

    assert value("stream_replay", "pass.source_share") >= 0.70
    for name in WORKLOADS:
        if name != "stream_replay":
            assert value(name, "pass.source_share") == 0
    assert value("paper_grid", "fastpath.batch.scalar_share") >= 0.50
    assert value("packed_replay", "fastpath.batch.scalar_share") <= 0.10
    for name in ("observed_replay", "variant_grid"):
        assert value(name, "fastpath.batch.fastloop_engaged") == 0
    assert value("observed_replay", "obs.events.lines") > 0


def test_trace_files_hold_a_span_tree(smoke_set):
    for name in WORKLOADS:
        with open(os.path.join(OUT, f"{name}.trace.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        spans = payload["spans"]
        assert {span["name"] for span in spans if span["parent"] is None} == {"setup", "pass"}
        for span in spans:
            assert span["workload"] == name
            assert span["start_ns"] <= span["end_ns"] and span["self_ns"] >= 0
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["id"] == span["parent"] < span["id"]
                assert parent["start_ns"] <= span["start_ns"] and span["end_ns"] <= parent["end_ns"]


def test_compare_a_set_with_itself_and_with_a_slower_copy(smoke_set):
    path, result, _ = smoke_set
    same = subprocess.run(RUN + ["compare", path, path], capture_output=True, text=True, timeout=60)
    assert same.returncode == 0 and " worse" not in same.stdout, same.stdout
    for cell in (result["workloads"]["paper_grid"]["end_to_end"]["wall_s"],):
        cell["values"] = [value * 2 for value in cell["values"]]
    slower = os.path.join(OUT, "smoke_set_slower.json")
    with open(slower, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    worse = subprocess.run(RUN + ["compare", path, slower], capture_output=True, text=True, timeout=60)
    assert worse.returncode == 1 and " worse" in worse.stdout, worse.stdout


def test_one_prints_the_result_object_last(definitions):
    command = definitions["command"] + [
        "--workload", "variant_grid", "--seed", "3", "--seconds", "0", "--trace", "0",
        "--scale", "smoke",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in definitions["end_to_end"]]
    assert all(cell["value"] > 0 for cell in result["metrics"].values())


def test_refuses_to_run_without_the_program(definitions):
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "benchmarks", "e2e"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    command = definitions["command"] + ["--workload", "paper_grid", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and done.stdout.strip() == ""
