"""Packed binary columnar trace format (``.rpct``): writer + reader.

A packed trace stores exactly what chunked replay consumes — the
:class:`repro.fastpath.interning.InternedChunk` sequence — so reading it
back requires no string interning, no parsing, and no whole-trace
materialisation. Replaying a packed file is byte-identical to replaying
the trace it was packed from (intern ids are preserved verbatim, and both
engines are chunking-invariant).

Layout (all integers little-endian)::

    header   "RPCT" | u16 version=1 | u16 flags=0 | u64 reserved
    chunk*   "CHNK" | u64 n | u64 new_docs | u64 new_clients
             | u64 base_docs | u64 base_clients | u64 base_records
             | int64[n] doc_ids | int64[n] sizes
             | float64[n] timestamps | int64[n] clients
             | u64 url_blob_len    | (u32 len | utf-8 bytes)*  new urls
             | u64 client_blob_len | (u32 len | utf-8 bytes)*  new clients
    footer   "FOOT" | u64 total_records | u64 total_docs
             | u64 total_clients | 32-byte sha256 | "RPCT"

The fixed-width numeric columns make the reader *mmap-backed*: each
column of a chunk is copied out of the page cache into a typed buffer
(``array('q')`` / ``array('d')``, one ``frombytes`` — the same path with
or without numpy) and handed to
:class:`~repro.fastpath.interning.InternedChunk` as that buffer. The
chunk owns what happens next: the kernel's vector regimes take numpy
views of the buffers, the loop without them asks for lists and gets them
built on first access, and :func:`write_packed` writes a buffer-backed chunk's bytes
back out unchanged. Resident memory stays O(chunk) no matter the file
size. The UTF-8 length of every stored string is its own ``u32`` prefix,
so the per-document URL lengths the engines need are read, not
recomputed. The footer carries stream totals — progress bars
and manifests know ``num_records`` without scanning — plus a *columnar
fingerprint*: the sha256 of every chunk payload, verifying integrity and
content-addressing the replay-relevant columns (the record-level
:meth:`Trace.fingerprint` also hashes fields this format does not store,
e.g. session ids, so the two are distinct namespaces).

Timestamps round-trip bit-exactly (IEEE-754 doubles), which byte
identity requires.
"""

from __future__ import annotations

import hashlib
import mmap
import struct
from array import array
from typing import BinaryIO, Iterator, List, Optional, Tuple

from repro.atomicio import atomic_path
from repro.errors import TraceError

MAGIC = b"RPCT"
VERSION = 1
_HEADER = struct.Struct("<4sHHQ")
_CHUNK_HEAD = struct.Struct("<4sQQQQQQ")
_CHUNK_MARK = b"CHNK"
_FOOTER = struct.Struct("<4sQQQ32s4s")
_FOOT_MARK = b"FOOT"
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

#: Default records per stored chunk (matches the engines' streaming
#: default so a packed file replays one stored chunk per engine chunk).
DEFAULT_PACK_CHUNK = 1 << 18


def _pack_strings(strings) -> bytes:
    parts = []
    for s in strings:
        raw = s.encode("utf-8")
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def write_packed(path: str, source, chunk_size: Optional[int] = None) -> Tuple[int, int, int]:
    """Pack ``source`` into ``path``; returns (records, docs, clients).

    ``source`` is a :class:`~repro.trace.record.Trace` or any streamed
    source (``interned_chunks``). The file's stored chunk boundaries are
    whatever ``chunk_size`` yields (default :data:`DEFAULT_PACK_CHUNK`);
    replay is chunking-invariant, so the choice only shapes reader
    memory, not results.

    The file is written beside ``path`` and renamed over it only once the
    footer is down (:func:`repro.atomicio.atomic_path`), so a pack that
    fails or is interrupted leaves whatever was at ``path`` untouched and
    no partial file behind.
    """
    size = chunk_size if chunk_size is not None else DEFAULT_PACK_CHUNK
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        return _write_stream(fh, source.interned_chunks(size))


def _write_stream(fh: BinaryIO, chunks) -> Tuple[int, int, int]:
    """Write header, every chunk of ``chunks`` and the footer to ``fh``."""
    digest = hashlib.sha256()
    total_records = total_docs = total_clients = 0
    fh.write(_HEADER.pack(MAGIC, VERSION, 0, 0))
    for chunk in chunks:
        n = chunk.num_records
        url_blob = _pack_strings(chunk.new_urls)
        client_blob = _pack_strings(chunk.new_client_names)
        payload = b"".join(
            (
                *chunk.column_bytes(),
                _U64.pack(len(url_blob)),
                url_blob,
                _U64.pack(len(client_blob)),
                client_blob,
            )
        )
        fh.write(
            _CHUNK_HEAD.pack(
                _CHUNK_MARK,
                n,
                len(chunk.new_urls),
                len(chunk.new_client_names),
                chunk.base_docs,
                chunk.base_clients,
                chunk.base_records,
            )
        )
        fh.write(payload)
        digest.update(payload)
        total_records += n
        total_docs += len(chunk.new_urls)
        total_clients += len(chunk.new_client_names)
    fh.write(
        _FOOTER.pack(
            _FOOT_MARK,
            total_records,
            total_docs,
            total_clients,
            digest.digest(),
            MAGIC,
        )
    )
    return total_records, total_docs, total_clients


class PackedTraceReader:
    """Streamed source over a packed columnar trace file.

    Opens the file mmap-backed (falling back to plain reads where mmap is
    unavailable, e.g. empty files) and validates header and footer
    eagerly, so totals are known before any chunk is decoded::

        reader = PackedTraceReader("trace.rpct")
        result = run_simulation(config, reader)     # O(chunk) memory
        reader.close()

    ``interned_chunks`` yields the *stored* chunk boundaries — replay is
    chunking-invariant, so re-slicing would change memory shape, never
    results; the requested size is therefore ignored. The reader may be
    iterated multiple times (each call restarts from the first chunk).
    """

    def __init__(self, path: str):
        self.path = path
        self._fh: BinaryIO = open(path, "rb")
        self._buf = b""
        try:
            self._open_validated()
        except BaseException:
            # A rejected file must not keep its handle and mapping open.
            self.close()
            raise

    def _open_validated(self) -> None:
        path = self.path
        try:
            self._buf = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # zero-length or mmap-less platform
            self._buf = self._fh.read()
        size = len(self._buf)
        if size < _HEADER.size + _FOOTER.size:
            raise TraceError(f"packed trace {path!r}: file truncated")
        magic, version, _flags, _reserved = _HEADER.unpack_from(self._buf, 0)
        if magic != MAGIC:
            raise TraceError(f"packed trace {path!r}: bad magic {magic!r}")
        if version != VERSION:
            raise TraceError(
                f"packed trace {path!r}: unsupported version {version} "
                f"(reader supports {VERSION})"
            )
        mark, records, docs, clients, fingerprint, tail = _FOOTER.unpack_from(
            self._buf, size - _FOOTER.size
        )
        if mark != _FOOT_MARK or tail != MAGIC:
            raise TraceError(f"packed trace {path!r}: footer missing (truncated?)")
        self.num_records = records
        self.num_docs = docs
        self.num_clients = clients
        self.fingerprint = fingerprint.hex()

    def close(self) -> None:
        if isinstance(self._buf, mmap.mmap):
            self._buf.close()
        self._fh.close()

    def __reduce__(self):
        # mmap handles do not pickle; a reader is fully described by its
        # path, so pool workers re-open the file (the page cache makes
        # this cheap) instead of shipping buffers across the boundary.
        return (PackedTraceReader, (self.path,))

    def __enter__(self) -> "PackedTraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _corrupt(self, detail: str, off: int) -> TraceError:
        return TraceError(f"packed trace {self.path!r}: {detail} at offset {off}")

    # repro: domains[off=byte-size, end=byte-size, pos=byte-size, blob_len=byte-size]
    def _read_strings(
        self, off: int, end: int, count: int, what: str
    ) -> Tuple[List[str], List[int], int]:
        """Decode the ``count``-string blob whose ``u64`` length sits at ``off``.

        Returns the strings, their UTF-8 byte lengths (the stored
        prefixes) and the offset just past the blob. Every length is
        checked against the bytes actually there (``end`` = start of the
        footer) before it is used.
        """
        buf = self._buf
        if off + 8 > end:
            raise self._corrupt(f"{what} blob length missing", off)
        (blob_len,) = _U64.unpack_from(buf, off)
        start = off + 8
        if start + blob_len > end:
            raise self._corrupt(
                f"{what} blob of {blob_len} bytes runs past the chunk data", off
            )
        blob = buf[start : start + blob_len]
        strings: List[str] = []
        lengths: List[int] = []
        pos = 0
        try:
            for _ in range(count):
                if pos + 4 > blob_len:
                    raise self._corrupt(
                        f"{what} string prefix outside its blob", start + pos
                    )
                (length,) = _U32.unpack_from(blob, pos)
                if pos + 4 + length > blob_len:
                    raise self._corrupt(
                        f"{what} string of {length} bytes overruns its blob",
                        start + pos,
                    )
                strings.append(blob[pos + 4 : pos + 4 + length].decode("utf-8"))
                lengths.append(length)
                pos += 4 + length
        except UnicodeDecodeError as exc:
            # ``pos`` still addresses the prefix of the string that failed.
            raise self._corrupt(
                f"{what} string is not UTF-8 ({exc.reason})", start + pos
            ) from None
        if pos != blob_len:
            raise self._corrupt(f"{what} blob length mismatch", off)
        return strings, lengths, start + blob_len

    # Decoded columns carry the same domains the packer wrote: chunk-local
    # request offsets over global interned ids, with byte offsets into the
    # backing mmap kept strictly in the byte-size domain.
    # repro: domains[off=byte-size, width=byte-size, records_seen=global-seq]
    # repro: domains[base_docs=interned-id, base_records=global-seq]
    def interned_chunks(
        self, chunk_size: int, spans=None
    ) -> Iterator["InternedChunk"]:
        """Decode stored chunks in order (``chunk_size`` ignored; see above).

        Chunks come out buffer-backed (typed ``array`` columns; see
        :class:`~repro.fastpath.interning.InternedChunk`), with their new
        URLs' byte lengths taken from the stored prefixes.

        ``spans`` (an optional :class:`repro.obs.spans.SpanTracer`) times
        each chunk's decode as a ``decode`` span with record/byte
        counters — a child of the engine's source span. Telemetry only.
        """
        from repro.fastpath.interning import COLUMN_CODES, InternedChunk

        buf = self._buf
        end = len(buf) - _FOOTER.size
        off = _HEADER.size
        records_seen = 0
        traced = spans is not None
        while off < end:
            chunk_start = off
            if traced:
                spans.begin("decode", "source")
            if off + _CHUNK_HEAD.size > end:
                raise self._corrupt("chunk truncated", off)
            mark, n, new_docs, new_clients, base_docs, base_clients, base_records = (
                _CHUNK_HEAD.unpack_from(buf, off)
            )
            if mark != _CHUNK_MARK:
                raise self._corrupt("bad chunk marker", off)
            if base_records != records_seen:
                raise TraceError(
                    f"packed trace {self.path!r}: chunk base_records "
                    f"{base_records} != records seen {records_seen}"
                )
            off += _CHUNK_HEAD.size
            width = n * 8
            if off + len(COLUMN_CODES) * width > end:
                raise self._corrupt(
                    f"chunk of {n} records runs past the chunk data", chunk_start
                )
            columns = []
            for code in COLUMN_CODES:
                column = array(code)
                column.frombytes(buf[off : off + width])
                columns.append(column)
                off += width
            new_urls, new_url_lens, off = self._read_strings(off, end, new_docs, "url")
            new_client_names, _, off = self._read_strings(
                off, end, new_clients, "client"
            )
            records_seen += n
            chunk = InternedChunk(
                *columns,
                new_urls=new_urls,
                new_client_names=new_client_names,
                base_docs=base_docs,
                base_clients=base_clients,
                base_records=base_records,
                new_url_lens=new_url_lens,
            )
            if traced:
                spans.end(records=n, bytes=off - chunk_start)
            yield chunk
        if records_seen != self.num_records:
            raise TraceError(
                f"packed trace {self.path!r}: footer records {self.num_records} "
                f"!= chunks read {records_seen}"
            )


__all__ = ["DEFAULT_PACK_CHUNK", "PackedTraceReader", "write_packed"]
