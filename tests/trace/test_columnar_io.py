"""Packed columnar trace format: round trip, replay identity, validation.

The format's contract: reading a ``.rpct`` back yields the exact interned
chunk sequence it was packed from, replay of the file is byte-identical
to replay of the original trace, and every structural corruption is a
:class:`TraceError` rather than silent garbage.
"""

from __future__ import annotations

import gc
import hashlib
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
        assert reader.num_docs == len(interned.new_urls)
        assert reader.num_clients == len(interned.new_client_names)
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
    """One decode path: the list views agree with and without numpy."""
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


_HEAD = struct.Struct("<4sQQQQQQ")  # chunk head, after the 16-byte file header
_FOOTER_BYTES = 64


def _first_chunk_offsets(blob: bytes) -> dict:
    """Byte offsets of the first stored chunk's structural fields."""
    _mark, n, _docs, _clients, *_ = _HEAD.unpack_from(blob, 16)
    columns = 16 + _HEAD.size
    url_blob_len = columns + 32 * n
    (url_bytes,) = struct.unpack_from("<Q", blob, url_blob_len)
    return {
        "n": 16 + 4,
        "columns": columns,
        "records": n,
        "url_blob_len": url_blob_len,
        "first_url_prefix": url_blob_len + 8,
        "client_blob_len": url_blob_len + 8 + url_bytes,
    }


def _corrupted(good: bytes, case: str) -> bytes:
    """``good`` with one structural field of its first chunk broken."""
    at = _first_chunk_offsets(good)
    blob = bytearray(good)
    if case == "n claims more records than the file holds":
        struct.pack_into("<Q", blob, at["n"], at["records"] + 10**6)
    elif case == "n overflows any file":
        struct.pack_into("<Q", blob, at["n"], 2**64 - 1)
    elif case == "url blob length too long":
        struct.pack_into("<Q", blob, at["url_blob_len"], 10**12)
    elif case == "url blob length one short":
        (length,) = struct.unpack_from("<Q", blob, at["url_blob_len"])
        struct.pack_into("<Q", blob, at["url_blob_len"], length - 1)
    elif case == "client blob length too long":
        struct.pack_into("<Q", blob, at["client_blob_len"], 10**12)
    elif case == "string prefix overruns":
        struct.pack_into("<I", blob, at["first_url_prefix"], 0xFFFFFFF0)
    elif case == "string prefix one short":
        (length,) = struct.unpack_from("<I", blob, at["first_url_prefix"])
        struct.pack_into("<I", blob, at["first_url_prefix"], length - 1)
    elif case == "url byte is not utf-8":
        blob[at["first_url_prefix"] + 4] = 0xFF
    elif case == "truncated mid-column":
        cut = at["columns"] + 8 * at["records"] + 5
        blob = blob[:cut] + blob[-_FOOTER_BYTES:]
    else:  # pragma: no cover - a typo in the parametrisation
        raise AssertionError(case)
    return bytes(blob)


@pytest.mark.parametrize("numpy_leg", ("numpy", "no numpy"))
@pytest.mark.parametrize(
    "case",
    (
        "n claims more records than the file holds",
        "n overflows any file",
        "url blob length too long",
        "url blob length one short",
        "client blob length too long",
        "string prefix overruns",
        "string prefix one short",
        "url byte is not utf-8",
        "truncated mid-column",
    ),
)
def test_corrupt_structure_is_a_trace_error(
    packed_path, tmp_path, monkeypatch, case, numpy_leg
):
    """Every structural read is bounds-checked: a broken count, length,
    prefix or byte is a TraceError naming the file and where — never a
    struct.error / ValueError / UnicodeDecodeError out of the decoder —
    and the reader still lets go of its handle and mapping."""
    if numpy_leg == "no numpy":
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    else:
        monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
    path = tmp_path / "corrupt.rpct"
    path.write_bytes(_corrupted(Path(packed_path).read_bytes(), case))
    config = SimulationConfig(aggregate_capacity=1_000_000, engine="batch")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with PackedTraceReader(str(path)) as reader:
            with pytest.raises(TraceError, match="at offset [0-9]+") as decoding:
                list(reader.interned_chunks(1))
            with pytest.raises(TraceError, match="at offset [0-9]+"):
                run_simulation(config, reader)
        assert reader._fh.closed and reader._buf.closed
        gc.collect()
    assert str(path) in str(decoding.value)
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


class RecordingSource:
    """A streamed source that remembers the chunks it handed out."""

    def __init__(self, inner):
        self._inner = inner
        self.chunks = []

    def interned_chunks(self, chunk_size):
        for chunk in self._inner.interned_chunks(chunk_size):
            self.chunks.append(chunk)
            yield chunk


@pytest.mark.parametrize("chunk_size", (700, 4096))
def test_repack_is_byte_identical_and_builds_no_lists(trace, tmp_path, chunk_size):
    """pack -> read -> pack: a buffer-backed chunk is written from its
    buffers, so the file repeats byte for byte and no list column is made."""
    first = str(tmp_path / "first.rpct")
    second = str(tmp_path / "second.rpct")
    write_packed(first, trace, chunk_size=chunk_size)
    with PackedTraceReader(first) as reader:
        source = RecordingSource(reader)
        write_packed(second, source, chunk_size=chunk_size)
        fingerprint = reader.fingerprint
    digests = [
        hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in (first, second)
    ]
    assert digests[0] == digests[1]
    with PackedTraceReader(second) as reader:
        assert reader.fingerprint == fingerprint
    assert len(source.chunks) == -(-CFG.num_requests // chunk_size)
    assert all(chunk.listed_columns == () for chunk in source.chunks)


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
