"""The kernel writes ``request`` lines in ranges; the stream must not notice.

An observed kernel replay emits a local hit's ``request`` line only when
the next decision line, a due snapshot tick or the chunk's end flushes the
pending range (``repro.fastpath.batch``). These cases put snapshot ticks
between local hits and chunk edges inside runs of local hits, on the
distributed group, on a hierarchy with LFU and on a hierarchy whose
childless root takes requests (its misses travel no hop), and compare the
whole stream with the object core's, byte for byte.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.fastpath import simulate_batch
from repro.obs.events import RunRecorder
from repro.obs.manifest import config_hash
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig
from repro.trace import SyntheticTraceConfig, generate_trace

#: Seconds between ticks: several per hundred requests of this trace.
INTERVAL = 7.0

SHAPES = {
    "distributed-lru": {},
    "hierarchical-lfu": {"architecture": "hierarchical", "policy": "lfu", "num_parents": 2},
    # Three roots over two leaves: the childless root takes requests too,
    # so its misses travel 0 hops where the other leaves' travel 1.
    "hierarchical-childless-root": {
        "architecture": "hierarchical", "num_caches": 2, "num_parents": 3,
    },
}


@pytest.fixture(scope="module")
def trace():
    """Hot enough that most requests are local hits, with evictions."""
    return generate_trace(
        SyntheticTraceConfig(
            num_requests=3_000,
            num_documents=150,
            num_clients=6,
            zipf_alpha=1.1,
            seed=5,
        )
    )


def config_for(shape: str) -> SimulationConfig:
    return SimulationConfig(
        **{"scheme": "ea", "num_caches": 4, "aggregate_capacity": 400_000, **SHAPES[shape]}
    )


def stream(config, trace, chunk_size=None, replay=None) -> str:
    sink = io.StringIO()
    recorder = RunRecorder(sink, INTERVAL)
    recorder.begin(config_hash(config), trace.fingerprint())
    if replay is None:
        CooperativeSimulator(config, obs=recorder).run(trace)
    else:
        replay(config, trace, obs=recorder, chunk_size=chunk_size)
    recorder.end()
    return sink.getvalue()


def kinds(text: str):
    """Per line: the request kind, or the event type for other lines."""
    out = []
    for line in text.splitlines():
        event = json.loads(line)
        out.append(event["kind"] if event["e"] == "request" else event["e"])
    return out


@pytest.fixture(scope="module")
def object_streams(trace):
    return {shape: stream(config_for(shape), trace) for shape in SHAPES}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_cases_reach_ticks_and_edges_inside_local_hit_runs(shape, trace, object_streams):
    """Guard on the workload: ticks fall between two local hits, and so do
    the edges of 171-request chunks; every decision line type fires."""
    lines = kinds(object_streams[shape])
    assert any(
        lines[k] == "snapshot" and lines[k - 1] == "local_hit" and lines[k + 1] == "local_hit"
        for k in range(1, len(lines) - 1)
    )
    requests = [kind for kind in lines if kind in ("local_hit", "remote_hit", "miss")]
    assert requests.count("local_hit") > len(requests) // 2
    edges = range(171, len(requests), 171)
    assert sum(requests[k - 1] == requests[k] == "local_hit" for k in edges) >= 2
    assert {"promotion", "evict", "placement", "snapshot"} <= set(lines)


def test_the_childless_root_takes_misses_of_both_hop_counts(object_streams):
    hops = {
        event["hops"]
        for event in map(json.loads, object_streams["hierarchical-childless-root"].splitlines())
        if event["e"] == "request" and event["kind"] == "miss"
    }
    assert hops == {0, 1}


@pytest.mark.parametrize("chunk_size", [1, 171, None])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_kernel_stream_equals_object_core(shape, chunk_size, trace, object_streams):
    text = stream(config_for(shape), trace, chunk_size, simulate_batch)
    assert text == object_streams[shape]
