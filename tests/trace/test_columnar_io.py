"""Packed columnar trace format: round trip, replay identity, validation.

The format's contract: reading a ``.rpct`` back yields the exact interned
chunk sequence it was packed from, replay of the file is byte-identical
to replay of the original trace, and every structural corruption is a
:class:`TraceError` rather than silent garbage.
"""

from __future__ import annotations

import gc
import os
import pickle
import struct
import warnings
from pathlib import Path

import pytest

from repro.errors import TraceError
from repro.simulation.simulator import SimulationConfig, run_simulation
from repro.trace.columnar_io import (
    MAGIC,
    PackedTraceReader,
    write_packed,
)
from repro.trace.stream import SyntheticTraceStream
from repro.trace.synthetic import SyntheticTraceConfig, generate_trace

CFG = SyntheticTraceConfig(
    num_requests=3_000,
    num_documents=400,
    num_clients=14,
    zero_size_fraction=0.03,
    seed=55,
)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(CFG)


@pytest.fixture()
def packed_path(trace, tmp_path):
    path = str(tmp_path / "t.rpct")
    write_packed(path, trace, chunk_size=700)
    return path


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
        )
        for chunk in source.interned_chunks(chunk_size)
    ]


def test_round_trip_preserves_chunks(trace, packed_path):
    """Stored chunks decode to exactly what the trace interns."""
    with PackedTraceReader(packed_path) as reader:
        assert _chunk_tuples(reader, 700) == _chunk_tuples(trace, 700)


def test_totals_and_fingerprint(trace, packed_path):
    interned = trace.interned()
    with PackedTraceReader(packed_path) as reader:
        assert reader.num_records == interned.num_records
        assert reader.num_docs == interned.num_docs
        assert reader.num_clients == interned.num_clients
        assert isinstance(reader.fingerprint, str)
        assert len(reader.fingerprint) == 64  # sha256 hex


def test_write_from_stream_equals_write_from_trace(trace, tmp_path):
    """Packing the synthetic stream yields the same file as the trace."""
    a = str(tmp_path / "a.rpct")
    b = str(tmp_path / "b.rpct")
    write_packed(a, trace, chunk_size=700)
    write_packed(b, SyntheticTraceStream(CFG), chunk_size=700)
    assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.parametrize("engine", ("columnar", "batch"))
def test_replay_identity(trace, packed_path, engine):
    """Replaying the packed file == replaying the original trace."""
    config = SimulationConfig(
        scheme="ea", num_caches=4, aggregate_capacity=1_000_000, engine=engine
    )
    expected = run_simulation(config, trace).to_json()
    with PackedTraceReader(packed_path) as reader:
        assert run_simulation(config, reader).to_json() == expected


def test_no_numpy_decode_is_identical(packed_path, monkeypatch):
    """The array-module decode path yields the same chunks."""
    with PackedTraceReader(packed_path) as reader:
        with_np = _chunk_tuples(reader, 700)
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    with PackedTraceReader(packed_path) as reader:
        assert _chunk_tuples(reader, 700) == with_np


def test_reader_is_reiterable(packed_path):
    with PackedTraceReader(packed_path) as reader:
        assert _chunk_tuples(reader, 1) == _chunk_tuples(reader, 999_999)


def test_reader_pickles_by_path(packed_path):
    """Pool workers re-open the file; the mmap never crosses the pickle."""
    with PackedTraceReader(packed_path) as reader:
        clone = pickle.loads(pickle.dumps(reader))
        try:
            assert clone.num_records == reader.num_records
            assert clone.fingerprint == reader.fingerprint
        finally:
            clone.close()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.rpct"
    path.write_bytes(b"NOPE" + bytes(96))
    with pytest.raises(TraceError, match="bad magic"):
        PackedTraceReader(str(path))


def test_truncated_file(tmp_path):
    path = tmp_path / "tiny.rpct"
    path.write_bytes(MAGIC)
    with pytest.raises(TraceError, match="truncated"):
        PackedTraceReader(str(path))


def test_unsupported_version(tmp_path):
    path = tmp_path / "vers.rpct"
    header = struct.pack("<4sHHQ", MAGIC, 99, 0, 0)
    path.write_bytes(header + bytes(64))
    with pytest.raises(TraceError, match="version"):
        PackedTraceReader(str(path))


def test_missing_footer(trace, tmp_path, packed_path):
    blob = open(packed_path, "rb").read()
    path = tmp_path / "cut.rpct"
    path.write_bytes(blob[:-3])
    with pytest.raises(TraceError, match="footer"):
        PackedTraceReader(str(path))


def test_corrupt_chunk_marker(packed_path, tmp_path):
    blob = bytearray(open(packed_path, "rb").read())
    # First chunk marker sits right after the 16-byte header.
    blob[16:20] = b"XXXX"
    path = tmp_path / "chnk.rpct"
    path.write_bytes(bytes(blob))
    with PackedTraceReader(str(path)) as reader:
        with pytest.raises(TraceError, match="chunk"):
            list(reader.interned_chunks(1))


def _rejected_files(good: bytes):
    """One file per ``raise TraceError`` of the reader's constructor."""
    return {
        "truncated": MAGIC,
        "bad magic": b"NOPE" + bytes(96),
        "version": struct.pack("<4sHHQ", MAGIC, 99, 0, 0) + bytes(64),
        "footer": good[:-3],
    }


@pytest.mark.parametrize("match", ("truncated", "bad magic", "version", "footer"))
def test_rejected_file_is_closed(packed_path, tmp_path, match):
    """A constructor that raises keeps neither the handle nor the mmap."""
    path = tmp_path / "rejected.rpct"
    path.write_bytes(_rejected_files(Path(packed_path).read_bytes())[match])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(TraceError, match=match):
            PackedTraceReader(str(path))
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


class _BreaksMidPack:
    """A source that yields one good chunk and then fails."""

    def __init__(self, trace):
        self._trace = trace

    def interned_chunks(self, chunk_size):
        yield next(iter(self._trace.interned_chunks(chunk_size)))
        raise OSError("source went away")


@pytest.mark.parametrize("failure", ("bad chunk size", "mid-pack"))
def test_failed_pack_leaves_destination_untouched(trace, packed_path, tmp_path, failure):
    """A pack that raises neither clobbers a good file nor leaves litter."""
    good = Path(packed_path).read_bytes()
    if failure == "bad chunk size":
        with pytest.raises(TraceError, match="chunk_size"):
            write_packed(packed_path, SyntheticTraceStream(CFG), chunk_size=0)
    else:
        with pytest.raises(OSError, match="went away"):
            write_packed(packed_path, _BreaksMidPack(trace), chunk_size=700)
    assert Path(packed_path).read_bytes() == good
    assert os.listdir(tmp_path) == [os.path.basename(packed_path)]
