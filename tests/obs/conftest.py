"""Shared fixtures for the observability tests.

``stream_for`` renders one run's full ``repro-events/1`` stream to a
string by driving an engine directly with a :class:`RunRecorder` — the
primitive the cross-engine differential tests compare textually.
"""

from __future__ import annotations

import io

import pytest

from repro.fastpath import simulate_columnar
from repro.obs.events import RunRecorder
from repro.obs.manifest import config_hash
from repro.simulation.simulator import CooperativeSimulator, SimulationConfig
from repro.trace import SyntheticTraceConfig, Trace, generate_trace


@pytest.fixture(scope="session")
def obs_trace() -> Trace:
    """Eviction-heavy workload so placement/promotion/evict events all fire."""
    return generate_trace(
        SyntheticTraceConfig(
            num_requests=2_000,
            num_documents=250,
            num_clients=10,
            zipf_alpha=0.7,
            zero_size_fraction=0.03,
            seed=77,
        )
    )


def stream_for(
    config: SimulationConfig,
    trace: Trace,
    engine: str,
    snapshot_interval: float = 0.0,
    recorder_cls=RunRecorder,
    chunk_size=None,
):
    """Replay ``trace`` on one engine with events on; returns (text, result).

    ``recorder_cls`` swaps in the serialisation oracle
    (:class:`tests.obs.reference_recorder.ReferenceRecorder`);
    ``chunk_size`` makes the columnar engine replay in interned chunks.
    """
    sink = io.StringIO()
    recorder = recorder_cls(sink, snapshot_interval)
    recorder.begin(config_hash(config), trace.fingerprint())
    if engine == "columnar":
        result = simulate_columnar(config, trace, obs=recorder, chunk_size=chunk_size)
    else:
        result = CooperativeSimulator(config, obs=recorder).run(trace)
    recorder.end()
    return sink.getvalue(), result
