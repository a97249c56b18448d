"""Chunk column views: lists, typed buffers, numpy — one decision.

An :class:`InternedChunk` is list-backed (interners, the synthetic
stream) or buffer-backed (the packed reader). These tests pin the seams
that decision created: the vectorised leaf / patched-size columns of a
chunk against the list derivation the columnar core uses, and
the laziness itself — which list columns exist after a replay.
"""

from __future__ import annotations

import pytest

from repro.fastpath._frame import ReplayFrame
from repro.fastpath.numeric import decimal_digits
from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace import Trace, TraceRecord
from repro.trace.columnar_io import PackedTraceReader, write_packed
from repro.trace.stream import RecordStream
from repro.trace.synthetic import SyntheticTraceConfig, generate_trace

from tests.trace.test_columnar_io import RecordingSource

np = pytest.importorskip("numpy")

CHUNK = 40


def _records():
    """160 requests; every 40-request chunk brings clients not seen before
    (hash and round-robin-client must grow their table each time) and a
    few zero-size records (the patch rule)."""
    return [
        TraceRecord(
            timestamp=float(i),
            client_id=f"client{(i // CHUNK) * 5 + i % 7}",
            url=f"http://d/{i % 23}",
            size=0 if i % 11 == 0 else 100 + i % 13,
        )
        for i in range(4 * CHUNK)
    ]


@pytest.fixture(scope="module")
def packed(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("chunk-columns") / "t.rpct")
    write_packed(path, Trace(_records()), chunk_size=CHUNK)
    return path


@pytest.mark.parametrize("patch_size", (4096, 1))
@pytest.mark.parametrize(
    "partitioner", ("hash", "round-robin-client", "round-robin-request")
)
@pytest.mark.parametrize("backing", ("lists", "buffers", "whole"))
def test_vectorised_columns_equal_list_columns(packed, backing, partitioner, patch_size):
    config = SimulationConfig(num_caches=3, partitioner=partitioner, patch_size=patch_size)
    by_list = ReplayFrame(config, "columnar")
    by_numpy = ReplayFrame(config, "batch")
    if backing == "lists":
        source = RecordStream(lambda: iter(_records()))
        chunks = list(source.interned_chunks(CHUNK))
    elif backing == "buffers":
        with PackedTraceReader(packed) as reader:
            chunks = list(reader.interned_chunks(CHUNK))
    else:  # the one memo-carrying chunk a materialised trace is
        chunks = [Trace(_records()).interned()]
    if backing != "whole":
        assert len(chunks) == 4 and all(chunk.new_client_names for chunk in chunks)
    for chunk in chunks:
        _docs, sizes_np, _ts, clients_np = chunk.columns_np(np)
        leaf_np, rsz_np = by_numpy.chunk_columns_np(np, chunk, clients_np, sizes_np)
        digits_np = decimal_digits(np, rsz_np)
        leaf_l, rsz_l, digits_l = by_list.chunk_columns(chunk)
        assert leaf_np.tolist() == leaf_l
        assert leaf_np.dtype == np.uint8  # three caches: a leaf is a byte
        assert rsz_np.tolist() == rsz_l
        assert digits_np.tolist() == digits_l == [len(str(size)) for size in rsz_l]
        assert patch_size in rsz_l and 0 not in rsz_l
        if backing == "whole":  # kept: the next replay gets the very same lists
            again = ReplayFrame(config, "columnar").chunk_columns(chunk)
            assert all(a is b for a, b in zip(again, (leaf_l, rsz_l, digits_l)))
        else:
            assert chunk.memo is None


def test_numpy_columns_are_the_list_columns(packed):
    """columns_np: views of the buffers == arrays of the lists."""
    with PackedTraceReader(packed) as reader:
        for chunk in reader.interned_chunks(CHUNK):
            views = chunk.columns_np(np)
            assert chunk.listed_columns == ()
            lists = (chunk.doc_ids, chunk.sizes, chunk.timestamps, chunk.clients)
            assert [view.tolist() for view in views] == list(lists)
            assert [view.dtype for view in views] == [
                np.int64, np.int64, np.float64, np.int64,
            ]
            assert chunk.listed_columns == ("doc_ids", "sizes", "timestamps", "clients")
            assert chunk.doc_ids is lists[0]  # built once, kept


@pytest.fixture(scope="module")
def bigger_packed(tmp_path_factory):
    trace = generate_trace(
        SyntheticTraceConfig(
            num_requests=4_000, num_documents=500, num_clients=16,
            zero_size_fraction=0.02, seed=7,
        )
    )
    path = str(tmp_path_factory.mktemp("chunk-columns") / "bigger.rpct")
    write_packed(path, trace, chunk_size=500)
    return path


def _replay(path, capacity):
    regimes: dict = {}
    config = SimulationConfig(scheme="ea", aggregate_capacity=capacity, engine="batch")
    with PackedTraceReader(path) as reader:
        source = RecordingSource(reader)
        run_simulation(config, source, regimes=regimes)
    assert "fallback_reason" not in regimes
    return regimes, source.chunks


def test_all_cold_replay_builds_no_list_column(bigger_packed, monkeypatch):
    monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
    regimes, chunks = _replay(bigger_packed, 1 << 40)
    assert regimes == {"cold": 4_000, "hit_run": 0, "scalar": 0}
    assert len(chunks) == 8
    assert all(chunk.listed_columns == () for chunk in chunks)


def test_evicting_replay_builds_lists_from_the_transition_chunk_on(
    bigger_packed, monkeypatch
):
    monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
    regimes, chunks = _replay(bigger_packed, 4_000_000)
    transition = regimes["cold"] // 500
    assert 0 < transition < len(chunks) - 1, regimes
    for index, chunk in enumerate(chunks):
        # The scalar path indexes the chunk's own timestamps; its leaf and
        # size lists come from the numpy columns, not from the chunk.
        expected = () if index < transition else ("timestamps",)
        assert chunk.listed_columns == expected, index


def test_columnar_core_reads_the_lists_of_a_buffer_backed_chunk(bigger_packed):
    """The other consumer: lists on demand, same answer as the fast loop."""
    results = []
    for engine in ("batch", "columnar"):
        config = SimulationConfig(aggregate_capacity=2_000_000, engine=engine)
        with PackedTraceReader(bigger_packed) as reader:
            source = RecordingSource(reader)
            results.append(run_simulation(config, source).to_json().replace(
                f'"engine": "{engine}"', '"engine": "-"'
            ))
    assert all(
        chunk.listed_columns == ("doc_ids", "sizes", "timestamps", "clients")
        for chunk in source.chunks
    )
    assert results[0] == results[1]
