"""An observed replay runs the vector regimes; the stream must not notice.

With a :class:`RunRecorder` attached and no snapshots, ``engine="batch"``
runs the numpy precompute, the vectorised cold prefix (whose lines
``RunRecorder.cold_requests`` writes whole) and the numpy post-pass. These
cases put the cold split inside a chunk, on a chunk edge and one request
before it, and compare the whole stream of the batch kernel with the
object core's and with the columnar loop's (the same kernel with its
vector regimes off), byte for byte: ad-hoc and EA, EA with the responder
tie-break (no cold regime, so the loop starts at request 0), a measured
window after warm-up requests, and a group of more than 256 caches, whose
leaf and responder columns are not bytes; and a hierarchy under LFU,
which runs the precompute's runs and the post-pass with no cold regime.
Snapshots keep the vector regimes off, and the manifest says which way a
run went.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.fastpath import batch_fastloop_reason, simulate_batch, simulate_columnar
from repro.fastpath.numeric import load_numpy
from repro.obs.events import RunRecorder
from repro.obs.manifest import config_hash
from repro.obs.session import run_observed
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig
from repro.trace import SyntheticTraceConfig, generate_trace


def vector() -> bool:
    """The vector regimes run (numpy present, ``REPRO_NO_NUMPY`` unset);
    without them the streams must match all the same."""
    return load_numpy() is not None

#: Per cache; 12 caches x 40 KB fills after a few hundred requests of
#: ``trace`` below, so the cold regime ends well inside it.
PER_CACHE = 40_000

CONFIGS = {
    "adhoc": {"scheme": "adhoc"},
    "ea": {"scheme": "ea"},
    "ea-responder": {"scheme": "ea", "tie_break": "responder"},
}


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        SyntheticTraceConfig(
            num_requests=2_500,
            num_documents=400,
            num_clients=30,
            zipf_alpha=0.8,
            zero_size_fraction=0.03,
            seed=41,
        )
    )


def config_for(name: str, num_caches: int = 12) -> SimulationConfig:
    return SimulationConfig(
        num_caches=num_caches, aggregate_capacity=num_caches * PER_CACHE, **CONFIGS[name]
    )


def stream(config, trace, engine, chunk_size=None, snapshot_interval=0.0, regimes=None):
    """``(event text, result json)`` of one observed replay."""
    sink = io.StringIO()
    recorder = RunRecorder(sink, snapshot_interval)
    recorder.begin(config_hash(config), trace.fingerprint())
    if engine == "object":
        result = CooperativeSimulator(config, obs=recorder).run(trace)
    elif engine == "columnar":
        result = simulate_columnar(config, trace, obs=recorder, chunk_size=chunk_size)
    else:
        result = simulate_batch(
            config, trace, obs=recorder, chunk_size=chunk_size, regimes=regimes
        )
    recorder.end()
    return sink.getvalue(), result.to_json()


@pytest.fixture(scope="module")
def expected(trace):
    """The object core's stream per config, computed once."""
    return {name: stream(config_for(name), trace, "object") for name in CONFIGS}


def cold_split(config, trace) -> int:
    if not vector():
        pytest.skip("numpy unavailable: no cold regime to split")
    regimes: dict = {}
    simulate_batch(config, trace, obs=RunRecorder(io.StringIO()), regimes=regimes)
    assert "fallback_reason" not in regimes
    return regimes["cold"]


@pytest.mark.parametrize("name", ["adhoc", "ea"])
def test_cold_split_at_every_chunk_edge(trace, expected, name):
    config = config_for(name)
    split = cold_split(config, trace)
    n = len(trace)
    assert 7 < split < n - 7  # the regime ends inside the trace
    assert expected[name] == stream(config, trace, "columnar")
    for chunk_size in (1, 7, split - 1, split, n, None):
        regimes: dict = {}
        got = stream(config, trace, "batch", chunk_size, regimes=regimes)
        assert got == expected[name], chunk_size
        assert "fallback_reason" not in regimes
        assert regimes["cold"] == split
        assert regimes["cold"] + regimes["hit_run"] + regimes["scalar"] == n


def test_responder_tie_break_has_no_cold_regime(trace, expected):
    config = config_for("ea-responder")
    if vector():
        assert cold_split(config, trace) == 0
    for chunk_size in (1, 7, None):
        assert stream(config, trace, "batch", chunk_size) == expected["ea-responder"]


@pytest.mark.parametrize("scheme", ["adhoc", "ea"])
def test_more_than_256_caches(trace, scheme):
    """Leaves and responders past 255: the leaf column is a list and the
    responder column an ``array('q')``."""
    config = SimulationConfig(
        scheme=scheme, num_caches=300, aggregate_capacity=300 * 10_000
    )
    want = stream(config, trace, "object")
    regimes: dict = {}
    assert stream(config, trace, "batch", regimes=regimes) == want
    assert regimes["cold"] > 0 if vector() else "fallback_reason" in regimes
    assert stream(config, trace, "batch", chunk_size=97) == want
    responders = [
        json.loads(line)["responder"]
        for line in want[0].splitlines()
        if line.startswith('{"e":"request"') and '"kind":"remote_hit"' in line
    ]
    assert max(responders) > 255


def test_cold_lines_are_every_cold_line(trace, expected):
    """A trace that never leaves the cold regime: every line is written by
    the cold writer, and the stream is still the object core's."""
    config = SimulationConfig(scheme="ea", num_caches=12, aggregate_capacity=1 << 34)
    want = stream(config, trace, "object")
    regimes: dict = {}
    assert stream(config, trace, "batch", regimes=regimes) == want
    if vector():
        assert regimes == {"cold": len(trace), "hit_run": 0, "scalar": 0}
    assert stream(config, trace, "batch", chunk_size=7) == want


@pytest.mark.parametrize("scheme", ["adhoc", "ea"])
def test_hierarchical_lfu_stream(trace, scheme):
    """A hierarchy under LFU runs the vector regimes with a recorder and no
    snapshots (no cold regime: its latch is off), and writes the object
    core's stream byte for byte, whole and chunked."""
    config = SimulationConfig(
        scheme=scheme, architecture="hierarchical", policy="lfu", num_caches=8,
        num_parents=2, aggregate_capacity=10 * PER_CACHE,
    )
    want = stream(config, trace, "object")
    assert '"role":"parent"' in want[0] and '"e":"evict"' in want[0]
    assert stream(config, trace, "columnar") == want
    for chunk_size in (None, 97, 1):
        regimes: dict = {}
        assert stream(config, trace, "batch", chunk_size, regimes=regimes) == want
        if vector():
            assert "fallback_reason" not in regimes
            assert regimes["cold"] == 0 and regimes["hit_run"] > 0
        else:
            assert "numpy" in regimes["fallback_reason"]


def test_snapshots_keep_the_vector_regimes_off(trace):
    config = config_for("ea")
    recorder = RunRecorder(io.StringIO(), 50.0)
    reason = batch_fastloop_reason(config, recorder)
    assert reason is not None and "snapshot" in reason
    if vector():
        assert batch_fastloop_reason(config, RunRecorder(io.StringIO())) is None
    want = stream(config, trace, "object", snapshot_interval=50.0)
    regimes: dict = {}
    got = stream(config, trace, "batch", 7, snapshot_interval=50.0, regimes=regimes)
    assert got == want
    assert '"e":"snapshot"' in got[0]
    assert regimes == {"fallback_reason": reason}


def test_manifest_names_the_loop_that_ran(trace, tmp_path):
    config = SimulationConfig(
        scheme="ea", num_caches=12, aggregate_capacity=12 * PER_CACHE, engine="batch"
    )
    regimes: dict = {}
    events = run_observed(
        config, trace, events_path=str(tmp_path / "run.jsonl"), regimes=regimes
    ).manifest
    if vector():
        assert events["fastloop_reason"] is None
        assert "fallback_reason" not in regimes and regimes["cold"] > 0
    else:
        assert "numpy" in events["fastloop_reason"]
    ticking = run_observed(
        config, trace, events_path=str(tmp_path / "tick.jsonl"), snapshot_interval=50.0
    ).manifest
    assert "snapshot" in ticking["fastloop_reason"]
