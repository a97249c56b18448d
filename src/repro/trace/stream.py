"""Streamed trace sources: replay without materialising the trace.

Both replay engines accept, in place of a :class:`~repro.trace.record.Trace`,
any *streamed source* — an object exposing:

* ``interned_chunks(chunk_size)`` — an iterator of
  :class:`repro.fastpath.interning.InternedChunk` covering the request
  stream in order, with globally consistent dense ids and per-chunk
  intern-table deltas (the streaming equivalent of
  :meth:`Trace.interned_chunks`).
* ``num_records`` — the total request count when known ahead of time
  (``None`` otherwise); progress reporting and run manifests read it.

Replaying a streamed source is **byte-identical** to materialising the
same records into a ``Trace`` first — intern ids depend only on record
order, and both engines' chunked replay is chunking-invariant. The win is
memory: a streamed replay holds one chunk of request columns plus
per-document state, so request count stops being a memory bound —
100M-request synthetic sweeps run in O(chunk) + O(universe).

This module provides the two generator-backed sources; packed columnar
trace files (:mod:`repro.trace.columnar_io`) implement the same protocol
over an on-disk format.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Callable, Iterable, Iterator, List, Optional

from repro.errors import TraceError
from repro.trace.record import TraceRecord, require_positive_int
from repro.trace.synthetic import BULikeTraceGenerator, SyntheticTraceConfig


def source_fingerprint(source, strict: bool = False) -> str:
    """Fingerprint of a trace source, materialised or streamed.

    ``Trace`` computes its fingerprint on demand (a method); streamed
    sources that know theirs ahead of time expose it as a plain string
    attribute (a packed reader's footer digest, a synthetic stream's
    config hash). Sources with neither get the ``"stream:opaque"``
    sentinel — fine for a manifest, but *not* a content address, so
    callers that key caches on the fingerprint pass ``strict=True`` and
    get a :class:`TraceError` instead.
    """
    fingerprint = getattr(source, "fingerprint", None)
    if callable(fingerprint):
        return fingerprint()
    if isinstance(fingerprint, str):
        return fingerprint
    if strict:
        raise TraceError(
            f"trace source {type(source).__name__} exposes no fingerprint; "
            "content-addressed caching needs one (give the stream a "
            "'fingerprint' attribute or materialise it into a Trace)"
        )
    return "stream:opaque"


def source_num_records(source) -> Optional[int]:
    """Total request count of a trace source, or None when unknowable.

    Every source spells it ``num_records``: a ``Trace`` answers with its
    length (without building the record list of a generated one), a
    packed reader reads it from the file footer before decoding any
    chunk. Progress reporting must use this instead of
    ``len(trace.records)`` — a streamed source has no ``records`` list.
    """
    return getattr(source, "num_records", None)


class RecordStream:
    """Adapt any record iterable into the streamed-source protocol.

    Args:
        records: A zero-argument callable returning a fresh iterator of
            :class:`TraceRecord` in trace order. A callable (not a bare
            iterator) because a source may be replayed more than once —
            e.g. a sweep re-driving the same stream at many capacities.
        num_records: Declared total request count, when the producer knows
            it ahead of time; ``None`` for open-ended streams.
    """

    def __init__(
        self,
        records: Callable[[], Iterable[TraceRecord]],
        num_records: Optional[int] = None,
    ):
        self._records = records
        self.num_records = num_records

    def interned_chunks(
        self, chunk_size: int, spans=None
    ) -> Iterator["InternedChunk"]:
        """Intern the stream incrementally into ``chunk_size``-record chunks.

        Dense ids continue across chunks (one :class:`ChunkingInterner`
        per iteration), so consecutive chunks replay exactly like the
        materialised trace would.

        ``spans`` (an optional :class:`repro.obs.spans.SpanTracer`) times
        each chunk's intern pass as an ``intern`` span — a child of the
        engine's source span, separating interning from raw generation
        inside the generation-vs-replay wall split. Telemetry only; the
        emitted chunks are identical with or without it.
        """
        require_positive_int("chunk_size", chunk_size)
        return self._interned_chunks(chunk_size, spans)

    def _interned_chunks(self, chunk_size: int, spans) -> Iterator["InternedChunk"]:
        # Imported here: repro.fastpath sits above the trace layer.
        from repro.fastpath.interning import ChunkingInterner

        interner = ChunkingInterner()
        traced = spans is not None
        batch: List[TraceRecord] = []
        for record in self._records():
            batch.append(record)
            if len(batch) >= chunk_size:
                if traced:
                    spans.begin("intern", "source")
                    chunk = interner.intern_chunk(batch)
                    spans.end(records=len(batch))
                    yield chunk
                else:
                    yield interner.intern_chunk(batch)
                batch = []
        if batch:
            if traced:
                spans.begin("intern", "source")
                chunk = interner.intern_chunk(batch)
                spans.end(records=len(batch))
                yield chunk
            else:
                yield interner.intern_chunk(batch)


class SyntheticTraceStream(RecordStream):
    """Chunked synthetic generation: the BU-like workload as a stream.

    The chunk view of :meth:`BULikeTraceGenerator.draw_blocks` — the
    *same* draw loop and column builder behind ``generate_trace``, so the
    RNG consumption order and every emitted request are identical by
    construction::

        stream = SyntheticTraceStream(SyntheticTraceConfig(num_requests=10**8))
        result = run_simulation(config, stream)   # O(chunk) request memory

    ``num_records`` is the configured request count, so sweep progress
    totals are exact without generating anything up front.
    """

    def __init__(self, config: Optional[SyntheticTraceConfig] = None):
        generator = BULikeTraceGenerator(config)
        super().__init__(
            generator.iter_records, num_records=generator.config.num_requests
        )
        self._generator = generator
        self.config = generator.config
        # The config fully determines every emitted record (one seeded
        # RNG), so its canonical JSON is a sound content address for the
        # stream — namespaced apart from record-level Trace fingerprints.
        canonical = json.dumps(
            asdict(self.config), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        self.fingerprint = f"synthetic:{digest}"

    def interned_chunks(
        self, chunk_size: int, spans=None
    ) -> Iterator["InternedChunk"]:
        """Draw the stream straight into ``chunk_size``-record chunks.

        :meth:`BULikeTraceGenerator.drawn_chunks`, the builder
        ``generate_trace`` uses too: identical, field for field, to
        interning the record view, with no record built per request.
        There is no interning pass, so ``spans`` receives no ``intern``
        span here; the engine's source span is all generation.
        """
        require_positive_int("chunk_size", chunk_size)
        return (chunk for chunk, _ in self._generator.drawn_chunks(chunk_size))


__all__ = [
    "RecordStream",
    "SyntheticTraceStream",
    "source_fingerprint",
    "source_num_records",
]
