"""The replay loop and the per-request audit it leaves.

A run replays its trace in timestamp order, one record at a time; with a
recorder attached every record ends in exactly one ``repro-events/1``
``request`` line, on every engine. That stream is the per-request audit,
so these tests read runs back from it: the lines follow the trace (ties
in trace order), count every record including the warm-up ones, and
tally to the run's counters.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.events import RunRecorder
from repro.obs.manifest import config_hash
from repro.obs.session import run_observed
from repro.obs.tools import summarize_events, tail_events
from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace.record import Trace, TraceRecord
from repro.trace.synthetic import SyntheticTraceConfig, generate_trace

ENGINES = ("object", "batch")
MATRIX = [
    (architecture, scheme, engine)
    for architecture in ("distributed", "hierarchical")
    for scheme in ("adhoc", "ea")
    for engine in ENGINES
]
KINDS = ("local_hit", "remote_hit", "miss")


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        SyntheticTraceConfig(
            num_requests=600, num_documents=80, num_clients=6,
            zero_size_fraction=0.05, seed=5,
        )
    )


def _config(architecture="distributed", scheme="ea", engine="object", **extra):
    return SimulationConfig(
        architecture=architecture, scheme=scheme, engine=engine,
        aggregate_capacity=1 << 18, **extra,
    )


def _replay(config, trace):
    """Run ``trace`` with a recorder attached; (request events, result)."""
    sink = io.StringIO()
    recorder = RunRecorder(sink)
    recorder.begin(config_hash(config), trace.fingerprint())
    result = run_simulation(config, trace, obs=recorder)
    recorder.end()
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    return [event for event in events if event["e"] == "request"], result


def _tally(requests):
    counts = dict.fromkeys(KINDS, 0)
    sizes = dict.fromkeys(KINDS, 0)
    for event in requests:
        counts[event["kind"]] += 1
        sizes[event["kind"]] += event["size"]
    return counts, sizes


def _counters(metrics):
    counts = {
        "local_hit": metrics.local_hits,
        "remote_hit": metrics.remote_hits,
        "miss": metrics.misses,
    }
    sizes = {
        "local_hit": metrics.bytes_local_hit,
        "remote_hit": metrics.bytes_remote_hit,
        "miss": metrics.bytes_miss,
    }
    return counts, sizes


@pytest.mark.parametrize("architecture,scheme,engine", MATRIX)
def test_request_lines_follow_the_trace(trace, architecture, scheme, engine):
    requests, _ = _replay(_config(architecture, scheme, engine), trace)
    assert [(e["t"], e["url"]) for e in requests] == [
        (record.timestamp, record.url) for record in trace
    ]


@pytest.mark.parametrize("architecture,scheme,engine", MATRIX)
def test_request_lines_tally_to_the_counters(trace, architecture, scheme, engine):
    requests, result = _replay(_config(architecture, scheme, engine), trace)
    counts, sizes = _tally(requests)
    assert (counts, sizes) == _counters(result.metrics)
    # The workload exercises every outcome class, so the tally is not
    # vacuously equal on an empty class.
    assert all(counts[kind] for kind in KINDS)


@pytest.mark.parametrize("architecture,scheme,engine", MATRIX)
def test_only_remote_hits_name_a_responder(trace, architecture, scheme, engine):
    requests, _ = _replay(_config(architecture, scheme, engine), trace)
    for event in requests:
        if event["kind"] == "remote_hit":
            assert isinstance(event["responder"], int)
            assert event["responder"] != event["cache"]
        else:
            assert event["responder"] is None
            assert event["refreshed"] is False


@pytest.mark.parametrize("engine", ENGINES)
def test_ties_replay_in_trace_order(engine):
    urls = [f"http://tie/{n}" for n in (3, 1, 4, 1, 5, 9, 2, 6)]
    tied = Trace(
        [TraceRecord(0.0, "c0", "http://tie/0", 500)]
        + [TraceRecord(7.5, f"c{i % 3}", url, 400 + i) for i, url in enumerate(urls)]
        + [TraceRecord(9.0, "c1", "http://tie/1", 401)]
    )
    requests, result = _replay(_config(engine=engine), tied)
    assert [e["url"] for e in requests] == [record.url for record in tied]
    assert [e["t"] for e in requests] == [record.timestamp for record in tied]
    assert result.metrics.requests == len(tied)


@pytest.mark.parametrize("engine", ENGINES)
def test_event_file_summarizes_to_the_counters(trace, tmp_path, engine):
    path = tmp_path / "events.jsonl"
    result = run_observed(_config(engine=engine), trace, events_path=str(path))
    summary = summarize_events(str(path))
    assert summary["events"]["request"] == len(trace)
    counts, _ = _counters(result.metrics)
    assert summary["requests_by_kind"] == dict(sorted(counts.items()))
    assert json.loads(tail_events(str(path), 1)[0]) == {
        "e": "end", "requests": len(trace),
    }
