"""Streamed trace sources: identity with materialised traces.

The protocol promise is strong — replaying a streamed source is
byte-identical to materialising the same records into a ``Trace`` first —
so these tests compare interned chunks and full replays, not just record
counts.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import pytest

from repro.errors import TraceError
from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace.record import Trace
from repro.trace.stream import (
    RecordStream,
    SyntheticTraceStream,
    source_fingerprint,
    source_num_records,
)
from repro.trace.columnar_io import PackedTraceReader, write_packed
from repro.trace.synthetic import SyntheticTraceConfig, bu_like_config, generate_trace

CFG = SyntheticTraceConfig(
    num_requests=4_000,
    num_documents=500,
    num_clients=16,
    zero_size_fraction=0.02,
    seed=77,
)


@pytest.fixture(scope="module")
def materialised() -> Trace:
    return generate_trace(CFG)


def _chunk_tuples(source, chunk_size):
    return [
        (
            chunk.doc_ids,
            chunk.sizes,
            chunk.timestamps,
            chunk.clients,
            chunk.new_urls,
            chunk.new_client_names,
            chunk.base_docs,
            chunk.base_clients,
            chunk.base_records,
            chunk.num_records,
            chunk.new_url_lens,
            chunk.new_icp_probe_bytes,
        )
        for chunk in source.interned_chunks(chunk_size)
    ]


def test_synthetic_stream_matches_generate(materialised):
    """Same config, same records — the stream's record view is generate's."""
    stream = SyntheticTraceStream(CFG)
    assert list(stream._records()) == materialised.records


@pytest.mark.parametrize("chunk_size", (1, 997, 4_000, 9_999))
def test_interned_chunks_match_trace(materialised, chunk_size):
    """The chunk view equals whole-trace interning, per chunk size."""
    stream = SyntheticTraceStream(CFG)
    assert _chunk_tuples(stream, chunk_size) == _chunk_tuples(
        materialised, chunk_size
    )


def test_record_stream_chunks_match_trace(materialised):
    """Incremental interning of the record view equals the trace's too."""
    stream = RecordStream(SyntheticTraceStream(CFG)._records, num_records=4_000)
    assert _chunk_tuples(stream, 997) == _chunk_tuples(materialised, 997)


_SMALL = SyntheticTraceConfig(
    num_requests=600, num_documents=80, num_clients=6, session_gap=20.0, seed=9
)
_BRANCHES = [
    replace(_SMALL, zero_size_fraction=zero, temporal_locality=locality, locality_stack_depth=depth)
    for zero, locality, depth in product((0.0, 0.02), (0.0, 0.3, 1.0), (0, 1, 32))
] + [replace(_SMALL, num_clients=1), replace(_SMALL, num_documents=1)]


@pytest.mark.parametrize("cfg", _BRANCHES, ids=lambda cfg: (
    f"z{cfg.zero_size_fraction}-t{cfg.temporal_locality}-d{cfg.locality_stack_depth}"
    f"-c{cfg.num_clients}-n{cfg.num_documents}"
))
def test_chunk_view_matches_record_view(cfg):
    """Both views of the draw loop agree on every chunk field, on every
    branch of the loop: no zero sizes, no re-references, only
    re-references, an empty / one-deep / default recency stack, one client,
    one document; for chunks of one, a few, all and more than all records."""
    trace = generate_trace(cfg)
    assert len(trace) == cfg.num_requests
    for chunk_size in (1, 7, cfg.num_requests, cfg.num_requests + 1):
        assert _chunk_tuples(SyntheticTraceStream(cfg), chunk_size) == _chunk_tuples(
            trace, chunk_size
        )


# Computed at the commit before the generator went column-first: the
# record fingerprint of generate_trace and the footer fingerprint of the
# packed stream. They pin the RNG draw order from outside the draw loop.
_PINNED = [
    (
        SyntheticTraceConfig(seed=42),
        "c11c1e52eb9208d3c0d8a4eb2f857b3f54e9c77fa4ef71fbb48e30ae54c19114",
        "48e2c215aee0f960c867f503ed8e3dd5d2d1c3fba281285ef1620dd693b8c43b",
    ),
    (
        bu_like_config(42).scaled(0.01),
        "1550bb8ed444af4f9743eed020b4f8d73f0176f326931a7884f872edfb6ee05a",
        "f58fa301535bb3c517afdcbf43ca87c0448834933625889a15626a072ec2960e",
    ),
    (
        SyntheticTraceConfig(seed=1337),
        "42accd7f26c1122ea19d34388978c6ea51bd6cc515466200e4902f7fdea869e5",
        "467d0ca1c45ee8394648fa6fb59957d2482d9a6ebc8378f4a2822388b4044e9f",
    ),
    (
        bu_like_config(1337).scaled(0.01),
        "118da1db8c2004d2a28d4780a897433005668e43927c2c1f87360ab9293c376e",
        "aea81c49e3ac264e4cf1a973da8b2aab56beda1f817f69840b48817f2e7590ab",
    ),
]


@pytest.mark.parametrize(
    "cfg, record_fingerprint, packed_fingerprint",
    _PINNED,
    ids=("default-42", "bu-42", "default-1337", "bu-1337"),
)
def test_draw_order_is_pinned(tmp_path, cfg, record_fingerprint, packed_fingerprint):
    assert generate_trace(cfg).fingerprint() == record_fingerprint
    path = str(tmp_path / "pinned.rpct")
    write_packed(path, SyntheticTraceStream(cfg))
    with PackedTraceReader(path) as reader:
        assert reader.fingerprint == packed_fingerprint


@pytest.mark.parametrize("engine", ("columnar", "batch"))
def test_streamed_replay_identity(materialised, engine):
    """Replaying the stream is byte-identical to replaying the trace."""
    config = SimulationConfig(
        scheme="ea", num_caches=4, aggregate_capacity=1_500_000, engine=engine
    )
    expected = run_simulation(config, materialised).to_json()
    got = run_simulation(config, SyntheticTraceStream(CFG), chunk_size=512)
    assert got.to_json() == expected


def test_stream_requires_chunked_engine():
    """The object engine cannot replay a stream; the error says so."""
    from repro.errors import SimulationError

    config = SimulationConfig(engine="object")
    with pytest.raises(SimulationError, match="chunked engine"):
        run_simulation(config, SyntheticTraceStream(CFG))


def test_record_stream_is_replayable(materialised):
    """A RecordStream can be iterated more than once (fresh iterators)."""
    stream = RecordStream(lambda: iter(materialised.records), num_records=4_000)
    first = _chunk_tuples(stream, 1_000)
    second = _chunk_tuples(stream, 1_000)
    assert first == second


@pytest.mark.parametrize("kind", ("Trace", "RecordStream", "SyntheticTraceStream"))
@pytest.mark.parametrize("chunk_size", (0, -5, 1.5, True))
def test_bad_chunk_size_fails_at_the_call(materialised, kind, chunk_size):
    """Rejected before any chunk is pulled, not at the first ``next()``."""
    source = {
        "Trace": materialised,
        "RecordStream": RecordStream(lambda: iter(materialised.records)),
        "SyntheticTraceStream": SyntheticTraceStream(CFG),
    }[kind]
    with pytest.raises(TraceError, match="chunk_size"):
        source.interned_chunks(chunk_size)


@pytest.mark.parametrize("engine", ("object", "columnar", "batch"))
@pytest.mark.parametrize("kind", ("Trace", "SyntheticTraceStream", "PackedTraceReader"))
@pytest.mark.parametrize("chunk_size", (0, -5, 1.5, True, "97"))
def test_run_simulation_rejects_a_bad_chunk_size(
    materialised, tmp_path, engine, kind, chunk_size
):
    """On every engine and source, before anything else is checked: the
    object engine and a packed reader used to ignore 0 and -5, and 1.5
    died as a raw TypeError from ``range()``."""
    if kind == "PackedTraceReader":
        path = tmp_path / "t.rpct"
        write_packed(str(path), materialised, chunk_size=700)
        source = PackedTraceReader(str(path))
    else:
        source = {"Trace": materialised, "SyntheticTraceStream": SyntheticTraceStream(CFG)}[kind]
    config = SimulationConfig(aggregate_capacity=200_000, engine=engine)
    with pytest.raises(TraceError, match="chunk_size must be"):
        run_simulation(config, source, chunk_size=chunk_size)


def test_only_an_interning_source_emits_intern_spans(materialised):
    """A RecordStream times its interning pass per chunk; the synthetic
    stream draws interned chunks directly and has no such pass."""
    from repro.obs.spans import SpanTracer

    def span_names(source):
        tracer = SpanTracer()
        for _ in source.interned_chunks(1_000, spans=tracer):
            pass
        return [row[0] for row in tracer.rows]

    records = RecordStream(lambda: iter(materialised.records))
    assert span_names(records) == ["intern"] * 4
    assert span_names(SyntheticTraceStream(CFG)) == []


def test_source_num_records(materialised):
    assert source_num_records(materialised) == 4_000
    assert source_num_records(SyntheticTraceStream(CFG)) == 4_000
    assert source_num_records(RecordStream(lambda: iter(()))) is None


def test_source_fingerprint_forms(materialised):
    """Trace methods, stream attributes, and the opaque sentinel."""
    assert source_fingerprint(materialised) == materialised.fingerprint()
    stream_fp = source_fingerprint(SyntheticTraceStream(CFG))
    assert stream_fp.startswith("synthetic:")
    # Deterministic: same config, same address; different seed, different.
    assert stream_fp == source_fingerprint(SyntheticTraceStream(CFG))
    other = SyntheticTraceConfig(
        num_requests=4_000,
        num_documents=500,
        num_clients=16,
        zero_size_fraction=0.02,
        seed=78,
    )
    assert stream_fp != source_fingerprint(SyntheticTraceStream(other))
    opaque = RecordStream(lambda: iter(()))
    assert source_fingerprint(opaque) == "stream:opaque"
    with pytest.raises(TraceError, match="fingerprint"):
        source_fingerprint(opaque, strict=True)


def test_memo_rejects_opaque_streams(tmp_path):
    """Content-addressed memoisation refuses unfingerprinted sources."""
    from repro.parallel.memo import sweep_memo_key

    with pytest.raises(TraceError, match="fingerprint"):
        sweep_memo_key(SimulationConfig(), RecordStream(lambda: iter(())))
